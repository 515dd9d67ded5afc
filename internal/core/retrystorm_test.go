package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestRetryStormDeterminism: a retry storm — deadline-abandoned attempts,
// backoff jitter, breaker trips, pool exhaustion, admission sheds — must
// render byte-identical tables for every seed at any sweep worker count.
// Runs at reduced scale (a 6s window instead of 30s) so 20 seeds × 3
// worker counts stay cheap; the full-scale seed-1 artifact is pinned by
// the golden test and swept by TestSweepWorkerCountInvariance.
func TestRetryStormDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("retry-storm determinism sweeps in -short mode")
	}
	seeds := 20
	if raceEnabled {
		seeds = 5 // the race detector ~10×es simulation time
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		var want string
		for i, w := range counts {
			got := renderAll(runRetryStormTables(Options{Seed: seed, Workers: w}, 0.2))
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d diverged at %d workers vs %d:\ngot:\n%s\nwant:\n%s",
					seed, w, counts[0], got, want)
			}
		}
		if !strings.Contains(want, "naive-retry") {
			t.Fatalf("seed %d: no naive-retry rows rendered", seed)
		}
	}
}

// TestRetryStormShowsMetastableCollapse sanity-checks the headline
// phenomenon at full scale: naive retries must make both the fault phase
// and the post-heal phase strictly worse than not retrying at all (the
// amplified backlog outlives the fault — the metastable signature), while
// the full policy must beat no-retry on availability in every phase and
// restore the post-heal tail to the healthy baseline.
func TestRetryStormShowsMetastableCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale retry-storm run in -short mode")
	}
	pols := rsPolicies()
	byName := map[string]rsResult{}
	for _, pol := range pols {
		byName[pol.name] = runRetryStorm(Options{Seed: 1}, pol, 1)
	}
	nr, nv, full := byName["no-retry"], byName["naive-retry"], byName["full-policy"]

	// Healthy phase: everyone serves everything.
	for name, r := range byName {
		if a := r.p[0].avail(); a < 99.9 {
			t.Errorf("%s pre-fault availability = %.2f%%, want ~100%%", name, a)
		}
	}
	// Naive retries amplify the outage: strictly worse during AND after.
	if nv.p[1].avail() >= nr.p[1].avail() {
		t.Errorf("naive during-fault availability %.2f%% not worse than no-retry %.2f%%",
			nv.p[1].avail(), nr.p[1].avail())
	}
	if nv.p[2].avail() >= nr.p[2].avail() {
		t.Errorf("naive post-heal availability %.2f%% not worse than no-retry %.2f%% (no metastable overhang)",
			nv.p[2].avail(), nr.p[2].avail())
	}
	// The collapse spreads beyond the hot shard: the client pool backlogs
	// (cold traffic starves) and arrivals give up, which never happens
	// without retries.
	if nv.gaveUp == 0 || nv.poolQ[1] == 0 {
		t.Errorf("naive retries did not exhaust the client pool (gaveUp %d, peak backlog %d)",
			nv.gaveUp, nv.poolQ[1])
	}
	if nr.gaveUp != 0 {
		t.Errorf("no-retry saw %d pool give-ups; the collapse should need retries", nr.gaveUp)
	}
	// The full policy dominates no-retry on availability in every phase…
	for i := range phaseNames {
		if full.p[i].avail() < nr.p[i].avail() {
			t.Errorf("full-policy %s availability %.2f%% below no-retry %.2f%%",
				phaseNames[i], full.p[i].avail(), nr.p[i].avail())
		}
	}
	// …and its post-heal tail returns to baseline while no-retry is still
	// draining the backlog of abandoned attempts.
	if fp, np := full.p[2].rec.Percentile(99), nr.p[2].rec.Percentile(99); fp >= np {
		t.Errorf("full-policy post-heal p99 %v not below no-retry %v", fp, np)
	}
	// The policy machinery actually engaged: breaker trips, server sheds,
	// bounded retries; and the hot-shard queue stayed bounded.
	if full.trips == 0 || full.shed == 0 || full.cstats.Retries == 0 {
		t.Errorf("full policy idle: trips %d, shed %d, retries %d",
			full.trips, full.shed, full.cstats.Retries)
	}
	if q := full.hotQ[1]; q > rsMaxQueue {
		t.Errorf("full-policy hot-shard queue peaked at %d, admission bound is %d", q, rsMaxQueue)
	}
	if nv.hotQ[2] <= nr.hotQ[2]/2 {
		t.Errorf("naive post-heal backlog %d not deeper than no-retry's %d",
			nv.hotQ[2], nr.hotQ[2])
	}
}

// TestHotTenantJailProtectsPoliteTenants sanity-checks the second table:
// jailing the abusive caller must raise polite throughput and cut the
// polite tail, while the abuser eats fast rejections.
func TestHotTenantJailProtectsPoliteTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-tenant runs in -short mode")
	}
	off := runHotTenant(Options{Seed: 1}, false, 0.5)
	on := runHotTenant(Options{Seed: 1}, true, 0.5)
	if off.abuser.rejected != 0 || off.jailed != 0 {
		t.Fatalf("jail off still rejected: abuser %d, server %d", off.abuser.rejected, off.jailed)
	}
	if on.jailed == 0 || on.abuser.rejected == 0 {
		t.Fatalf("jail on rejected nothing (server %d, abuser %d)", on.jailed, on.abuser.rejected)
	}
	if on.polite.rejected != 0 {
		t.Errorf("jail caught %d polite requests; it must be per-caller", on.polite.rejected)
	}
	if on.polite.served <= off.polite.served {
		t.Errorf("jail did not raise polite throughput: %d -> %d", off.polite.served, on.polite.served)
	}
	if onP, offP := on.polite.rec.Percentile(99), off.polite.rec.Percentile(99); onP >= offP {
		t.Errorf("jail did not cut the polite tail: p99 %v -> %v", offP, onP)
	}
}

// BenchmarkRetryStorm times the full-scale experiment end to end — all
// four policy variants plus the hot-tenant comparison, exactly what
// faasbench regenerates.
func BenchmarkRetryStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runRetryStormTables(Options{Seed: 1}, 1)
	}
}
