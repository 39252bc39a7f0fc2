package abtree

import (
	"testing"
	"unsafe"
)

// TestNodeSize pins the node's size on 64-bit targets: a layout change
// moves how many nodes share a cache line and a slab.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s != 920 {
		t.Fatalf("node is %d bytes, want 920", s)
	}
}
