package workload

import "testing"

// TestOpNamesAndShares pins each op kind's reporting name (the column
// and row names the figures and popbench print) and the mix field its
// Share reads.
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
	smix := StoreMix{GetPct: 1, PutPct: 2, MGetPct: 3, ScanPct: 4, DeletePct: 5, RMWPct: 6, MPutPct: 7}
	for _, c := range []struct {
		op    StoreOp
		name  string
		share int
	}{
		{StoreGet, "get", smix.GetPct},
		{StorePut, "put", smix.PutPct},
		{StoreMGet, "mget", smix.MGetPct},
		{StoreScan, "scan", smix.ScanPct},
		{StoreDelete, "delete", smix.DeletePct},
		{StoreRMW, "rmw", smix.RMWPct},
		{StoreMPut, "mput", smix.MPutPct},
	} {
		if got := c.op.String(); got != c.name {
			t.Errorf("StoreOp(%d).String() = %q, want %q", c.op, got, c.name)
		}
		if got := smix.Share(c.op); got != c.share {
			t.Errorf("StoreMix.Share(%v) = %d, want %d", c.op, got, c.share)
		}
	}
	if NumOps != 5 || NumStoreOps != 7 {
		t.Errorf("NumOps, NumStoreOps = %d, %d; want 5, 7", NumOps, NumStoreOps)
	}
}
