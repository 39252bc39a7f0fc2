package workload

import (
	"bytes"
	"testing"
)

// refAppendValueBytes and refValueBytesValid are the byte-at-a-time
// codec that AppendValueBytes and ValueBytesValid replaced. They are
// the reference the word-at-a-time codec must match exactly.
func refAppendValueBytes(buf []byte, key int64, tag uint32, size int) []byte {
	if size < MinCompactLen {
		size = MinCompactLen
	}
	if size < MinValueLen {
		nb := size - MinCompactLen
		tt := tag
		if nb < 4 {
			tt &= 1<<(8*nb) - 1
		}
		for i := 0; i < nb; i++ {
			buf = append(buf, byte(tt>>(8*i)))
		}
		ck := checksum32(key, tt)
		for i := 0; i < 4; i++ {
			buf = append(buf, byte(ck>>(8*i)))
		}
		return buf
	}
	head := EncodeValue(key, tag)
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(head>>(8*i)))
	}
	x := head
	for n := size - 8; n > 0; n -= 8 {
		w := splitmix(&x)
		for i := 0; i < 8 && i < n; i++ {
			buf = append(buf, byte(w>>(8*i)))
		}
	}
	return buf
}

func refValueBytesValid(key int64, v []byte) bool {
	if len(v) < MinCompactLen {
		return false
	}
	if len(v) < MinValueLen {
		nb := len(v) - MinCompactLen
		var tt uint32
		for i := 0; i < nb; i++ {
			tt |= uint32(v[i]) << (8 * i)
		}
		ck := checksum32(key, tt)
		for i := 0; i < 4; i++ {
			if v[nb+i] != byte(ck>>(8*i)) {
				return false
			}
		}
		return true
	}
	var head uint64
	for i := 0; i < 8; i++ {
		head |= uint64(v[i]) << (8 * i)
	}
	if !ValueValid(key, head) {
		return false
	}
	x := head
	for off := 8; off < len(v); off += 8 {
		w := splitmix(&x)
		for i := 0; i < 8 && off+i < len(v); i++ {
			if v[off+i] != byte(w>>(8*i)) {
				return false
			}
		}
	}
	return true
}

// maxFuzzValueLen is the largest payload size the fuzz draws.
const maxFuzzValueLen = 2048

// FuzzValueCodecMatchesBytewise checks that the word-at-a-time codec
// writes the same bytes as the byte-wise reference, after a prefix
// already in the buffer, and gives the same verdict on the intact
// payload, on every single-byte flip, on every truncation, under the
// wrong key, and on arbitrary bytes. size is taken mod 2049, so every
// size from 0 to 2048 is reachable; the seeds cover 0–80 (the compact
// lengths 4–7 and every tail length), and sizes around the powers of
// two up to 2048.
func FuzzValueCodecMatchesBytewise(f *testing.F) {
	for size := 0; size <= 80; size++ {
		f.Add(int64(size)*0x9e3779b9, uint32(size)*2654435761, uint16(size), byte(1), []byte(nil))
	}
	for _, size := range []uint16{127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025, 2041, 2047, 2048} {
		f.Add(int64(-1)-int64(size), ^uint32(size), size, byte(0x80), []byte("k0000000000000001"))
	}
	f.Fuzz(func(t *testing.T, key int64, tag uint32, size uint16, flip byte, data []byte) {
		n := int(size) % (maxFuzzValueLen + 1)
		if flip == 0 {
			flip = 1
		}
		prefix := []byte("prefix")
		got := AppendValueBytes(append([]byte(nil), prefix...), key, tag, n)
		want := refAppendValueBytes(append([]byte(nil), prefix...), key, tag, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: AppendValueBytes wrote %x, byte-wise %x", n, got, want)
		}
		v := got[len(prefix):]
		same := func(what string, k int64, p []byte) {
			t.Helper()
			if g, w := ValueBytesValid(k, p), refValueBytesValid(k, p); g != w {
				t.Fatalf("size %d, %s: ValueBytesValid %v, byte-wise %v", n, what, g, w)
			}
		}
		same("intact", key, v)
		if !ValueBytesValid(key, v) {
			t.Fatalf("size %d: fresh payload invalid", n)
		}
		same("wrong key", key+1, v)
		for i := range v {
			v[i] ^= flip
			same("flipped byte", key, v)
			v[i] ^= flip
		}
		for l := 0; l < len(v); l++ {
			same("truncated", key, v[:l])
		}
		same("arbitrary bytes", key, data)
	})
}
