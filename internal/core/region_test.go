package core

import (
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestRegionScaleNearLinear is the tentpole's acceptance gate: with each
// shard capacity-limited, quadrupling the shard count must at least triple
// aggregate completed throughput, and the run must be seed-deterministic.
func TestRegionScaleNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("region-scale scenario in -short mode")
	}
	r1 := runRegionScale(Options{Seed: 1}, 1)
	r4 := runRegionScale(Options{Seed: 1}, 4)

	if ratio := r4.throughput / r1.throughput; ratio < 3 {
		t.Errorf("4-shard speedup = %.2fx (%.0f vs %.0f req/s), want >= 3x",
			ratio, r4.throughput, r1.throughput)
	}
	// One shard saturates well below the offered rate; four shards should
	// land near their aggregate capacity.
	if r1.throughput > 0.35*regionOfferedRate {
		t.Errorf("1-shard throughput %.0f req/s does not saturate (offered %.0f)",
			r1.throughput, regionOfferedRate)
	}
	// Sharding must also collapse queueing delay, not just lift throughput.
	if r4.p99 >= r1.p99 {
		t.Errorf("4-shard p99 %v not below 1-shard p99 %v", r4.p99, r1.p99)
	}
	// Hash routing spreads the key space: no shard should dominate.
	if r4.hotShare > 0.35 {
		t.Errorf("hottest of 4 shards served %.0f%% of requests, want near 25%%",
			r4.hotShare*100)
	}

	if again := runRegionScale(Options{Seed: 1}, 4); again != r4 {
		t.Errorf("region scale is nondeterministic: %+v vs %+v", again, r4)
	}
}

// TestRegionScaleTable checks the shape of the sweep the table renders.
func TestRegionScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("region-scale scenario in -short mode")
	}
	rows := regionScaleSweep(Options{Seed: 1})
	if len(rows) != 4 || rows[0].shards != 1 || rows[3].shards != 8 {
		t.Fatalf("rows = %+v, want 1/2/4/8 shard counts", rows)
	}
	if rows[0].p99 < time.Second {
		t.Errorf("1-shard p99 = %v, want queueing collapse (>1s)", rows[0].p99)
	}
	if rows[3].p99 > 50*time.Millisecond {
		t.Errorf("8-shard p99 = %v, want service-time-class latency", rows[3].p99)
	}
}

// TestRegionScaleConcurrentOptions: a sketched and an exact run on two
// goroutines at once each equal their sequential run, because options
// travel with the call rather than through process-wide state.
func TestRegionScaleConcurrentOptions(t *testing.T) {
	opts := []Options{{Seed: 1, Sketch: true}, {Seed: 1}}
	run := func(workers int) []regionResult {
		return sweep.Map(workers, opts, func(_ int, o Options) regionResult {
			return runRegionScale(o, 4)
		})
	}
	want, got := run(1), run(2)
	if want[0] == want[1] {
		t.Fatal("sketched and exact runs agree exactly; the test cannot tell them apart")
	}
	for i := range opts {
		if got[i] != want[i] {
			t.Errorf("%+v diverged when run concurrently:\n  sequential: %+v\n  concurrent: %+v",
				opts[i], want[i], got[i])
		}
	}
}
