package harness

import (
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/workload"
)

// TestRunServeClosedLoop smoke-runs the wire-protocol serve trial with
// more connections than admission slots under a POP policy and the
// plain baseline.
func TestRunServeClosedLoop(t *testing.T) {
	for _, p := range []core.Policy{core.EpochPOP, core.EBR} {
		t.Run(p.String(), func(t *testing.T) {
			res, err := RunServe(ServeConfig{
				Policy:   p,
				Slots:    2,
				Conns:    8,
				Duration: 80 * time.Millisecond,
				Keys:     256,
				Seed:     7,
			})
			if err != nil {
				t.Fatalf("RunServe: %v", err)
			}
			if res.Ops == 0 || res.GetLat.Count() == 0 || res.SetLat.Count() == 0 {
				t.Fatalf("no load flowed: %+v", res)
			}
			if res.ValueErrors != 0 {
				t.Fatalf("ValueErrors = %d", res.ValueErrors)
			}
			if res.Server.GetHits == 0 {
				t.Fatalf("no get hits against a prefilled store")
			}
			if res.Server.ExecutorGets == 0 {
				t.Fatalf("no gets were served on the shard handles")
			}
			if res.GetLat == nil || res.GetLat.Count() == 0 {
				t.Fatalf("no get latencies recorded")
			}
			if res.Lifecycle.Leased != 0 {
				t.Fatalf("leaked leases: %d", res.Lifecycle.Leased)
			}
		})
	}
}

// TestRunServeOpenLoop drives the paced arrival mode with zipf keys.
func TestRunServeOpenLoop(t *testing.T) {
	res, err := RunServe(ServeConfig{
		Policy:   core.HazardPtrPOP,
		Slots:    2,
		Conns:    4,
		Duration: 80 * time.Millisecond,
		Keys:     256,
		Dist:     workload.Zipf,
		OpenRate: 8000,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("RunServe: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops in open-loop mode")
	}
	// Paced arrivals must not exceed the requested rate by much.
	if res.Throughput > 2*8000 {
		t.Fatalf("open-loop throughput %.0f far above the %d op/s target", res.Throughput, 8000)
	}
	if res.ValueErrors != 0 {
		t.Fatalf("ValueErrors = %d", res.ValueErrors)
	}
}

// TestRunServeCountsMatchServer: the server's counts, read after Close,
// match the clients' exactly. Each client counts a command once its
// reply arrives and the server counts it at dispatch, so a count read
// before every connection folded its block would come up short. Every
// get and set is timed, so the latency histograms' counts are the
// clients' gets and sets; RunServe itself fails when the clients' get
// hits differ from the server's.
func TestRunServeCountsMatchServer(t *testing.T) {
	for _, p := range []core.Policy{core.EpochPOP, core.HP} {
		t.Run(p.String(), func(t *testing.T) {
			res, err := RunServe(ServeConfig{
				Policy:   p,
				Slots:    2,
				Conns:    4,
				Duration: 60 * time.Millisecond,
				Keys:     512,
				GetPct:   70,
				Seed:     5,
			})
			if err != nil {
				t.Fatalf("RunServe: %v", err)
			}
			gets, sets := res.GetLat.Count(), res.SetLat.Count()
			if gets == 0 || sets == 0 || res.Server.GetHits == 0 {
				t.Fatalf("no load flowed: gets %d sets %d hits %d", gets, sets, res.Server.GetHits)
			}
			clients := [2]uint64{gets, sets}
			server := [2]uint64{res.Server.CmdGet, res.Server.CmdSet}
			if clients != server {
				t.Fatalf("gets, sets: clients counted %v, server %v", clients, server)
			}
		})
	}
}
