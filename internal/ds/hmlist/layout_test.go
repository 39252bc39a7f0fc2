package hmlist

import (
	"testing"
	"unsafe"

	"pop/internal/arena"
)

// TestNodeLayout pins Node's field offsets and size. A hop reads next
// and key; they sit side by side behind the header, and a node plus the
// pool's slot sequence word fills one 64-byte slab slot, so a node never
// straddles a cache line and growing it by a word doubles the lines a
// walk touches.
func TestNodeLayout(t *testing.T) {
	var n Node
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Header", unsafe.Offsetof(n.Header), 0},
		{"next", unsafe.Offsetof(n.next), 24},
		{"key", unsafe.Offsetof(n.key), 32},
		{"val", unsafe.Offsetof(n.val), 40},
		{"state", unsafe.Offsetof(n.state), 48},
		{"sizeof(Node)", unsafe.Sizeof(n), 56},
		{"sizeof(arena.Slot[Node])", unsafe.Sizeof(arena.Slot[Node]{}), 64},
	} {
		if f.got != f.want {
			t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}
}
