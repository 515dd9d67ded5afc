package core

import (
	"runtime"
	"slices"
	"testing"
)

// sweepFamilies is one sweep-bearing experiment per family migrated onto
// the parallel sweep engine: the shard sweep, the provisioned-concurrency
// sweep, the replicas × gossip grid, the polling-rate sweep, the election
// case study's independent clusters, and the seed-repetition loops of the
// ablation and autoscale experiments.
var sweepFamilies = []string{
	"regionscale", "faasscale", "statecache",
	"electionsweep", "election", "firecracker", "autoscale",
	"regionfailover", "retrystorm",
}

// renderAll renders an experiment's tables into one string.
func renderAll(tables []*Table) string {
	out := ""
	for _, tb := range tables {
		out += tb.Render()
	}
	return out
}

// TestSweepWorkerCountInvariance is the determinism regression test for
// the parallel sweep engine: every migrated experiment family must render
// byte-identical tables at W=1 (the sequential path), W=4, and
// W=GOMAXPROCS. Per-point seed isolation plus the ordered merge make the
// output a pure function of the seed, so any divergence here means a
// point leaked state across kernels.
func TestSweepWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-count invariance sweeps in -short mode")
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	families := sweepFamilies
	if raceEnabled {
		// The race detector ~10×es simulation time and the election
		// family alone is ~11s of virtual-cluster crashes per round;
		// under -race its W>1 path is already exercised by
		// TestElectionMatchesPaper at the session's worker count, so the
		// invariance re-runs drop it to keep the race job inside its
		// timeout.
		families = slices.DeleteFunc(slices.Clone(families),
			func(id string) bool { return id == "election" })
	}
	for _, id := range families {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("sweep family %q missing from registry", id)
		}
		var want string
		for i, w := range counts {
			got := renderAll(e.Run(Options{Seed: 1, Workers: w}))
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("experiment %q diverged at %d workers vs %d:\ngot:\n%s\nwant:\n%s",
					id, w, counts[0], got, want)
			}
		}
	}
}
