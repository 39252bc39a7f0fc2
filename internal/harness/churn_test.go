package harness

import (
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/workload"
)

// TestChurnTrial runs the elastic mode end to end: workers must rotate
// their handles (releases observed), the domain must stay within its
// slot budget (reuse, not growth), no value may fail its checksum, and
// the post-flush state must be leak-free.
func TestChurnTrial(t *testing.T) {
	for _, p := range []core.Policy{core.EpochPOP, core.NBR, core.EBR, core.Crystalline} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res, err := Run(Config{
				DS:       DSSkipList,
				Policy:   p,
				Threads:  4,
				Duration: 150 * time.Millisecond,
				KeyRange: 4096,
				Mix:      workload.KVStore,
				Churn:    workload.Churn{AfterOps: 500},
				Reclaim:  core.Options{ReclaimThreshold: 256},
			})
			if err != nil {
				t.Fatal(err)
			}
			lc := res.Lifecycle
			if lc.Releases == 0 {
				t.Fatalf("churn trial produced no releases: %+v", lc)
			}
			if lc.Slots > 4 {
				t.Fatalf("slots grew to %d despite reuse (threads=4)", lc.Slots)
			}
			if lc.Peak > 4 {
				t.Fatalf("peak leases %d exceeded worker count", lc.Peak)
			}
			if lc.OrphanNodes != 0 {
				t.Fatalf("orphans left after flush: %+v", lc)
			}
			if res.ValueErrors != 0 {
				t.Fatalf("%d value checksum failures under churn", res.ValueErrors)
			}
			if res.LeakedAfter != 0 {
				t.Fatalf("leaked %d nodes after churn flush", res.LeakedAfter)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
		})
	}
}

// TestStoreChurnTrial is the store-mode analogue: serving workers
// resize through the store's handle pool mid-measurement.
func TestStoreChurnTrial(t *testing.T) {
	res, err := RunStore(StoreConfig{
		Policy:   core.EpochPOP,
		Threads:  4,
		Duration: 150 * time.Millisecond,
		Keys:     4096,
		Shards:   4,
		Churn:    workload.Churn{AfterOps: 300},
		Reclaim:  core.Options{ReclaimThreshold: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifecycle.Releases == 0 {
		t.Fatalf("store churn trial produced no releases: %+v", res.Lifecycle)
	}
	if res.ValueErrors != 0 {
		t.Fatalf("%d value checksum failures under store churn", res.ValueErrors)
	}
	if res.LeakedAfter != 0 {
		t.Fatalf("leaked %d after store churn flush", res.LeakedAfter)
	}
}

// TestRegisterErrorPath: a thread-capacity misconfiguration must come
// back as an error from the error-returning lease path, not a panic.
func TestRegisterErrorPath(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	if _, err := d.TryRegisterThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TryRegisterThread(); err == nil {
		t.Fatal("capacity exhaustion did not error")
	}
}
