package workload

import "testing"

// TestOpNamesAndShares pins each op kind's reporting name (the column
// and row names the figures and popbench print) and, for the tree
// workload's Op, the mix field its Share reads.
func TestOpNamesAndShares(t *testing.T) {
	mix := Mix{ContainsPct: 1, InsertPct: 2, DeletePct: 3, RangePct: 4, OverwritePct: 5}
	for _, c := range []struct {
		op    Op
		name  string
		share int
	}{
		{Contains, "get", mix.ContainsPct},
		{Insert, "put", mix.InsertPct},
		{Overwrite, "overwrite", mix.OverwritePct},
		{Delete, "delete", mix.DeletePct},
		{RangeQuery, "scan", mix.RangePct},
	} {
		if got := c.op.String(); got != c.name {
			t.Errorf("Op(%d).String() = %q, want %q", c.op, got, c.name)
		}
		if got := mix.Share(c.op); got != c.share {
			t.Errorf("Mix.Share(%v) = %d, want %d", c.op, got, c.share)
		}
	}
	for _, c := range []struct {
		op   StoreOp
		name string
	}{
		{StoreGet, "get"},
		{StorePut, "put"},
		{StoreMGet, "mget"},
		{StoreScan, "scan"},
		{StoreDelete, "delete"},
		{StoreRMW, "rmw"},
		{StoreMPut, "mput"},
	} {
		if got := c.op.String(); got != c.name {
			t.Errorf("StoreOp(%d).String() = %q, want %q", c.op, got, c.name)
		}
	}
	if NumOps != 5 || NumStoreOps != 7 {
		t.Errorf("NumOps, NumStoreOps = %d, %d; want 5, 7", NumOps, NumStoreOps)
	}
}
