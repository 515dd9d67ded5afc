// Command perfbench measures the simulated cloud's own cost: host time,
// memory and allocation to simulate four fixed workloads, each composed
// from the layers' public APIs on one sim.Kernel in one process. Every run
// also checks the simulated output: conservation counts between the
// driver and the layers, and at pinned seeds an exact digest of every
// simulated statistic, so a simulator-only speed-up can prove it left the
// model untouched.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it inside the checkout:
//
//	bash perfbench/run.sh --workload kv-openloop --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer metrics
// (CPU and allocation shares from runtime/pprof, layer counters, tracing
// overhead) of a separate traced run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

var workloads = []*workload{&kvOpenLoop, &stateCacheGossip, &electionBlackboard, &faasBurst}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one measured repetition: setup, the timed window, the checks.
type rep struct {
	setup, wall    time.Duration
	allocBytes     uint64
	allocs         uint64
	o              *outcome
	digest         string
	err            error
	cpu, allocProf rollup
}

// profiler takes the CPU profile and the allocation-profile delta of one
// window.
type profiler struct {
	cpu        bytes.Buffer
	allocStart rollup
	err        error
}

func (p *profiler) start() {
	if p == nil {
		return
	}
	p.cpu.Reset()
	p.allocStart, p.err = allocSnapshot()
	if p.err == nil {
		p.err = pprof.StartCPUProfile(&p.cpu)
	}
}

func (p *profiler) stop(r *rep) {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	if p.err != nil {
		r.err = errors.Join(r.err, p.err)
		return
	}
	end, err := allocSnapshot()
	if err != nil {
		r.err = errors.Join(r.err, err)
		return
	}
	r.allocProf = newRollup()
	r.allocProf.add(end, 1)
	r.allocProf.add(p.allocStart, -1)
	r.cpu, err = rollupProfile(p.cpu.Bytes(), "samples")
	r.err = errors.Join(r.err, err)
}

// allocSnapshot rolls up the cumulative allocation profile; the runtime
// publishes it as of the last completed GC, hence the collection.
func allocSnapshot() (rollup, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return rollup{}, err
	}
	return rollupProfile(buf.Bytes(), "alloc_space")
}

// runRep sets one instance up, measures its window and checks its output.
// A panic in the simulation fails the repetition instead of the process,
// so the run still reports itself incorrect.
func runRep(w *workload, seed uint64, scale float64, tr *tracer, prof *profiler) (r rep) {
	defer func() {
		if v := recover(); v != nil {
			r.err = errors.Join(r.err, fmt.Errorf("simulation panicked: %v", v))
			r.o = newOutcome()
			r.o.attempted, r.o.failed = 1, 1
		}
	}()
	runtime.GC()
	t0 := time.Now()
	inst := w.setup(seed, scale, tr)
	r.setup = time.Since(t0)
	defer inst.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof.start()
	t1 := time.Now()
	inst.window()
	r.wall = time.Since(t1)
	prof.stop(&r)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs

	r.o = inst.finish()
	r.digest = r.o.sum()
	var pinned map[uint64]string // digests are pinned for the full window only
	if scale == 1 {
		pinned = pins[w.name]
	}
	r.err = errors.Join(r.err, verify(r.o, r.digest, pinned, seed))
	return r
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags; workloads:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var rp report
	if *trace == 1 {
		rp = traced(w, *seed, 1, budget)
	} else {
		rp = timed(w, *seed, 1, budget)
	}
	printReport(rp)
}

// minReps is the fewest repetitions a timed run medians over; minSetups
// the fewest extra set-ups it times before them.
const (
	minReps   = 3
	minSetups = 5
)

// timeSetup times one set-up of the workload and discards the instance.
func timeSetup(w *workload, seed uint64, scale float64) time.Duration {
	runtime.GC()
	t0 := time.Now()
	inst := w.setup(seed, scale, nil)
	d := time.Since(t0)
	inst.close()
	return d
}

// timed repeats the workload at one seed for the time budget and reports
// the end-to-end metrics as medians over repetitions. A tenth of the
// budget first goes to extra set-ups, so setup_s is a median over many.
// Every repetition must reproduce the first one's digest.
func timed(w *workload, seed uint64, scale float64, budget time.Duration) report {
	start := time.Now()
	var setups []float64
	for len(setups) < minSetups || time.Since(start) < budget/10 {
		setups = append(setups, timeSetup(w, seed, scale).Seconds())
	}
	var reps []rep
	rp := report{Correct: true, Metrics: map[string]metric{}}
	for len(reps) < minReps || time.Since(start) < budget {
		r := runRep(w, seed, scale, nil, nil)
		if r.err == nil && len(reps) > 0 && r.digest != reps[0].digest {
			r.err = fmt.Errorf("digest %s differs from the first repetition's %s", r.digest, reps[0].digest)
		}
		rp.Attempted += r.o.attempted
		rp.Failed += r.o.failed
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, r.err)
			rp.Correct = false
		}
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: setup %.3fs wall %.3fs digest %s\n",
			w.name, len(reps), r.setup.Seconds(), r.wall.Seconds(), r.digest)
	}
	o := reps[0].o
	ops := float64(max(len(o.lat), 1))
	med := func(f func(r rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	set := func(n string, v float64, unit string) { rp.Metrics[n] = metric{v, unit} }
	set("setup_s", median(setups), "s")
	set("wall_s", med(func(r rep) float64 { return r.wall.Seconds() }), "s")
	set("sim_ops_per_s", med(func(r rep) float64 { return ops / r.wall.Seconds() }), "1/s")
	set("alloc_mb", med(func(r rep) float64 { return float64(r.allocBytes) / 1e6 }), "MB")
	set("allocs_per_op", med(func(r rep) float64 { return float64(r.allocs) / ops }), "count")
	set("peak_rss_mb", peakRSSMB(), "MB")
	set("virt_p50_ms", ms(pct(o.lat, 50)), "ms")
	set("virt_p99_ms", ms(pct(o.lat, 99)), "ms")
	set("sim_usd_per_hr", o.usdPerHr, "USD/hr")
	fmt.Printf("workload %s seed %d: %d set-ups, %d repetitions, digest %s, %d ops per repetition (virt_p99_ms over %d samples), loop %s, %s\n",
		w.name, seed, len(setups), len(reps), reps[0].digest, len(o.lat), len(o.lat), w.loop, w.load)
	return rp
}

// traced makes the separate traced run: a warm-up and a baseline
// repetition untraced, one with spans kept (the tracing overhead is the
// difference of the last two wall times), then profiled repetitions for
// the rest of the budget. All must produce the same digest.
func traced(w *workload, seed uint64, scale float64, budget time.Duration) report {
	runtime.MemProfileRate = 16 << 10
	// Sample CPU at 1 kHz rather than pprof's 100 Hz. StartCPUProfile then
	// prints that it cannot set the rate and keeps this one; the rollup
	// uses sample counts, which the header's period does not affect.
	runtime.SetCPUProfileRate(1000)
	start := time.Now()
	rp := report{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
		rp.Correct = false
	}
	account := func(r rep, digest string) {
		rp.Attempted += r.o.attempted
		rp.Failed += r.o.failed
		if r.err != nil {
			fail(r.err)
		} else if digest != "" && r.digest != digest {
			fail(fmt.Errorf("digest %s differs from the untraced run's %s", r.digest, digest))
		}
	}
	// The first repetition in a process pays page faults and heap growth;
	// it is checked but not compared against the traced one.
	warm := runRep(w, seed, scale, nil, nil)
	account(warm, "")
	base := runRep(w, seed, scale, nil, nil)
	account(base, warm.digest)
	tr := &tracer{}
	withSpans := runRep(w, seed, scale, tr, nil)
	account(withSpans, base.digest)
	spanFile := filepath.Join(".bench_build", "spans", w.name+".jsonl")
	if err := tr.write(spanFile); err != nil {
		fail(err)
	}
	cpu, alloc := newRollup(), newRollup()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		r := runRep(w, seed, scale, nil, &profiler{})
		account(r, base.digest)
		cpu.add(r.cpu, 1)
		alloc.add(r.allocProf, 1)
	}
	set := func(n string, v float64, unit string) { rp.Metrics[n] = metric{v, unit} }
	for _, b := range append(append([]string{}, layers...), "driver", "other", "gc") {
		set("cpu."+b, 100*ratio(float64(cpu.bucket[b]), float64(cpu.total)), "%")
		set("alloc."+b, 100*ratio(float64(alloc.bucket[b]), float64(alloc.total)), "%")
	}
	set("cpu.json", 100*ratio(float64(cpu.json), float64(cpu.total)), "%")
	set("alloc.json", 100*ratio(float64(alloc.json), float64(alloc.total)), "%")
	set("cpu.samples", float64(cpu.total), "count")
	// Counters of layers a workload does not use read 0.
	for n, unit := range layerUnits {
		set(n, base.o.layer[n], unit)
	}
	set("op_error_rate", ratio(float64(base.o.failed), float64(base.o.attempted)), "ratio")
	set("trace.overhead_s", (withSpans.wall - base.wall).Seconds(), "s")
	set("trace.spans", float64(len(tr.spans)), "count")
	fmt.Printf("workload %s seed %d: traced, digest %s, %d spans in %s, untraced wall %.3fs, traced wall %.3fs\n",
		w.name, seed, base.digest, len(tr.spans), spanFile, base.wall.Seconds(), withSpans.wall.Seconds())
	return rp
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func printReport(rp report) {
	names := make([]string, 0, len(rp.Metrics))
	for n := range rp.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6f %s\n", n, rp.Metrics[n].Value, rp.Metrics[n].Unit)
	}
	out, err := json.Marshal(rp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
