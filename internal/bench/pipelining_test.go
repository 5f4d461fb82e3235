package bench

import (
	"context"
	"testing"
	"time"

	"nrmi/internal/model"
	"nrmi/internal/netsim"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// TestPipeliningBeatsSequential owns the promise layer's latency claim: K
// copy-restore calls (NRMIService.Nop, full restore of a 16-node tree) over
// a link that holds every message 2 to 4 ms finish at least 3x faster
// issued through CallAsync and joined with All than made one after another.
// Every promise is consumed, so both variants pay the same restore commits
// and only the waiting overlaps.
//
// The hold is a fault plan's delay on the server's address, which every
// message of these calls crosses in either direction. It is link
// occupancy: the Write sleeps it inline. Sequential calls cost about 2K
// holds. A Write carries every frame queued behind the one before it, so a
// pipelined window crosses in one or two messages each way, two to four
// holds: the ratio is capped at K, 8 here, and reads 5 to 8 (about 5
// under -race). The bar sits well below that cap.
func TestPipeliningBeatsSequential(t *testing.T) {
	const (
		calls  = 8
		size   = 16
		rounds = 5
		want   = 3.0
	)
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	e.Net.SetFaults(ServerAddr, netsim.RandomPlan(1, netsim.Rates{Delay: 1, MaxDelay: 4 * time.Millisecond}))
	ctx := context.Background()
	stub := e.Client.Stub(ServerAddr, "nrmi")

	run := func(seed int64, pipelined bool) time.Duration {
		trees := make([]*model.RTree, calls)
		for i := range trees {
			trees[i] = model.ToRWorld(&model.World{Root: model.BuildTree(seed+int64(i), size)}).Root
		}
		start := time.Now()
		var ps []*rmi.Promise
		for i, tree := range trees {
			if !pipelined {
				if _, err := stub.Call(ctx, "Nop", tree); err != nil {
					t.Fatalf("sequential call %d: %v", i, err)
				}
				continue
			}
			p, err := stub.CallAsync(ctx, "Nop", tree)
			if err != nil {
				t.Fatalf("pipelined issue %d: %v", i, err)
			}
			ps = append(ps, p)
		}
		if _, err := rmi.All(ctx, ps...); err != nil {
			t.Fatalf("pipelined join: %v", err)
		}
		return time.Since(start)
	}
	// Round 0 warms the connection and the codec plan caches and is not
	// measured; each variant keeps its fastest round, the robust statistic
	// for a latency-bound measurement.
	best := map[bool]time.Duration{}
	for r := 0; r <= rounds; r++ {
		for _, pipelined := range []bool{false, true} {
			d := run(int64(1+r*calls), pipelined)
			if r > 0 && (best[pipelined] == 0 || d < best[pipelined]) {
				best[pipelined] = d
			}
		}
	}
	ratio := float64(best[false]) / float64(best[true])
	t.Logf("%d calls, 2-4ms holds: sequential %s, pipelined %s (%.2fx)", calls, best[false], best[true], ratio)
	if ratio < want {
		t.Fatalf("pipelined calls are %.2fx faster than sequential, want at least %.1fx", ratio, want)
	}
}
