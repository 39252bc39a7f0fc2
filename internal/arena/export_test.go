package arena

import "sync/atomic"

// SetSeq rewrites the sequence in the header of h's slot to seq, keeping
// the recorded length, and returns the handle that names the slot under
// that sequence. seq must be odd (allocated) for the handle to be live.
func (b *Bytes) SetSeq(h Handle, seq uint32) Handle {
	slab, base, ok := b.slotOf(h.class(), h.idx())
	if !ok {
		panic("arena: SetSeq of handle naming no slab")
	}
	hdr := atomic.LoadUint64(&slab[base])
	atomic.StoreUint64(&slab[base], hdr>>32<<32|uint64(seq))
	return makeHandle(seq, h.class(), h.idx())
}
