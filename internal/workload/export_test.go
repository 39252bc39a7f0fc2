package workload

import "strconv"

// AppendTrace renders ops back into the ParseTrace line format, for
// the round-trip tests. An op with no trace form (StoreMGet, StoreMPut)
// is written under its own name, which ParseTrace rejects.
func AppendTrace(buf []byte, ops []TraceOp) []byte {
	for _, op := range ops {
		buf = append(buf, op.Op.String()...)
		buf = append(buf, ',')
		buf = append(buf, op.Key...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(op.Size), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, op.Offset.Microseconds(), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// Frontier returns the Latest insert frontier (0 otherwise).
func (s *Sampler) Frontier() int64 { return s.frontier }

// Rank draws an unscrambled Zipfian rank (0 = hottest); uniform for a
// Uniform sampler, so the distribution is testable before scrambling.
func (s *Sampler) Rank() int64 {
	if s.z == nil {
		return s.r.Intn(s.n)
	}
	return s.z.next(s.r)
}
