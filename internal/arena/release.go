//go:build amd64 && !race

package arena

// storeRelease writes v to *p with a plain store, a MOV. Under x86-TSO
// every store is a release: no processor sees it before the stores that
// precede it in program order, and the Go compiler keeps stores in
// program order. It is the Go spelling of C++ memory_order_release here,
// where atomic.StoreUint64 is an XCHG that drains the store buffer. The
// Go memory model calls a plain store beside another goroutine's atomic
// load a data race; the pairing is sound because the word is aligned
// (no tearing) and every reader validates what it read (see the rule in
// bytes.go). Race builds and other architectures take release_atomic.go.
func storeRelease(p *uint64, v uint64) { *p = v }
