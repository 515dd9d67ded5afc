package core

import "repro/internal/stats"

// Options configures one experiment run. The zero value (plus a seed) is
// the reference configuration the goldens pin: exact recorders,
// per-arrival load generation, per-key digest gossip, each experiment's
// default population, and the default sweep worker count. cmd/faasbench
// builds it from its flags.
type Options struct {
	// Seed makes the run deterministic; sub-simulations derive their
	// seeds from it.
	Seed uint64
	// Sketch records latencies in fixed-memory sketches instead of exact
	// recorders.
	Sketch bool
	// Population drives Poisson load from one aggregated client
	// population instead of one process per arrival.
	Population bool
	// Users overrides the simulated client-population size of
	// experiments that scale by user count (0 = each experiment's
	// default).
	Users int
	// Workers is the sweep worker count (0 = SWEEP_WORKERS, then
	// GOMAXPROCS). Output is byte-identical at any count.
	Workers int
	// Recon reconciles the statecache and regionfailover gossip with IBF
	// summaries instead of per-key digests. The millionkey experiment
	// always runs both protocols side by side.
	Recon bool
}

// withSeed returns o reseeded, for sub-simulations whose seeds derive from
// the experiment's.
func (o Options) withSeed(seed uint64) Options {
	o.Seed = seed
	return o
}

// newSummary builds the latency summary every experiment records into,
// honoring Sketch.
func (o Options) newSummary(name string) stats.Summary {
	return stats.NewSummary(name, o.Sketch)
}

// users returns the Users override, or def when unset.
func (o Options) users(def int) int {
	if o.Users > 0 {
		return o.Users
	}
	return def
}
