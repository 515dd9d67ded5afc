// Command faasbench regenerates every table and figure from "Serverless
// Computing: One Step Forward, Two Steps Back" (CIDR 2019) on the simulated
// cloud.
//
// Usage:
//
//	faasbench -list
//	faasbench -run table1
//	faasbench -run all [-seed 42] [-workers 8]
//	faasbench -run millionuser [-users 1000000]
//	faasbench -run regionscale -sketch -population
//
// The flags build one core.Options value that every experiment receives.
// Multi-point experiments fan their sweep points across -workers
// concurrent simulator kernels (0 = the SWEEP_WORKERS environment
// variable, else GOMAXPROCS). Output is byte-identical at any worker count
// — each point derives its randomness from (seed, point) alone and results
// merge in point order. Negative -workers or -users values, like an
// unknown -run id, are rejected with exit status 2; an experiment that
// fails mid-run prints "faasbench: <id>: <cause>" and exits with status 1.
//
// -sketch swaps every experiment's exact latency recorder for a
// fixed-memory quantile sketch (≤1% percentile error; mean, extremes, and
// counts stay exact), and -population swaps per-arrival load generation
// for one aggregated Poisson client population (-users sizes it). -recon
// swaps statecache gossip's per-key digest exchange for constant-size
// invertible-Bloom-filter summaries (O(diff) bytes per round). All
// default off, so default output is byte-identical to earlier releases;
// the millionuser experiment always uses sketch+population, and the
// millionkey experiment runs both gossip protocols side by side.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	runID := flag.String("run", "all", "experiment id to run, or 'all'")
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 0,
		"concurrent sweep workers (0 = GOMAXPROCS or $SWEEP_WORKERS)")
	sketch := flag.Bool("sketch", false,
		"record latencies in fixed-memory sketches (≤1% percentile error) instead of exact recorders")
	population := flag.Bool("population", false,
		"drive Poisson load from one aggregated client population instead of one process per arrival")
	users := flag.Int("users", 0,
		"override the simulated client-population size (0 = each experiment's default)")
	recon := flag.Bool("recon", false,
		"reconcile statecache gossip with constant-size IBF summaries instead of per-key digests")
	flag.Parse()
	if *workers < 0 {
		usageError("-workers must be >= 0, got %d", *workers)
	}
	if *users < 0 {
		usageError("-users must be >= 0, got %d", *users)
	}
	opts := core.Options{Seed: *seed, Sketch: *sketch, Population: *population,
		Users: *users, Workers: *workers, Recon: *recon}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []core.Experiment
	if *runID == "all" {
		exps = core.Experiments()
	} else {
		e, ok := core.ExperimentByID(*runID)
		if !ok {
			usageError("unknown experiment %q (use -list)", *runID)
		}
		exps = []core.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		tables, err := run(e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faasbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("== %s  (id=%s, seed=%d, wall=%.1fs)\n\n", e.Title, e.ID, *seed, elapsed.Seconds())
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
}

// run executes one experiment, turning a panic raised inside it into an
// error naming the experiment. The panic value carries its own context: a
// simulated process's panic names the process, and a sweep point's
// (*sweep.PointError) names the point index.
func run(e core.Experiment, opts core.Options) (tables []*core.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", e.ID, r)
		}
	}()
	return e.Run(opts), nil
}

// usageError reports bad command-line input and exits with status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "faasbench: "+format+"\n", args...)
	os.Exit(2)
}
