package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// gaugeTick is how often (virtual time) the driver samples the kernel,
// fabric and service gauges between RunUntil steps. Sampling happens
// outside any simulated process, so it adds no events and cannot move a
// simulated number.
const gaugeTick = 100 * time.Millisecond

// workload is one named traffic mix. setup assembles a fresh cloud from the
// seed and preloads its state; everything it returns is driven by the
// harness.
type workload struct {
	name string
	loop string // "open" or "closed"
	load string // the offered rate or client count
	// setup builds one instance. scale shrinks the measured window for
	// the benchmark's own tests (1 = the benchmark's window).
	setup func(seed uint64, scale float64, tr *tracer) instance
}

// instance is one assembled workload: window runs the measured virtual
// window, finish quiesces the cloud, runs the output checks and returns
// the simulated outcome, close tears the kernel down.
type instance interface {
	window()
	finish() *outcome
	close()
}

// env is the part every instance shares: the cloud, the tracer, the
// gauge peaks and the outcome being filled in.
type env struct {
	c  *core.Cloud
	tr *tracer
	o  *outcome

	// kv is the kvstore whose shard front ends the service gauges watch.
	kv        *kvstore.Store
	baseStats []kvstore.ShardStat

	peakProcs, peakInflight, peakQueue int
}

// newEnv assembles the cloud; ops is the expected op count, so the
// latency record is sized once in setup and not grown during the window.
func newEnv(seed uint64, cfg core.Config, tr *tracer, ops int) env {
	c := core.NewCloudWith(seed, cfg)
	o := newOutcome()
	o.lat = make([]time.Duration, 0, ops)
	return env{c: c, tr: tr, o: o, kv: c.DDB}
}

// startWindow marks the end of setup: charges and shard counters restart
// from here, so every metric covers the measured window only.
func (e *env) startWindow() {
	e.c.Meter.Reset()
	e.baseStats = e.kv.ShardStats()
}

// sample reads the gauges. It runs between RunUntil steps only.
func (e *env) sample() {
	e.peakProcs = max(e.peakProcs, e.c.K.LiveProcs())
	e.peakInflight = max(e.peakInflight, e.c.Net.Fabric().InFlight())
	q := 0
	for i := 0; i < e.kv.ShardCount(); i++ {
		q += e.kv.ShardFrontend(i).QueueDepth()
	}
	e.peakQueue = max(e.peakQueue, q)
}

// runUntil advances the kernel to virtual time t in gauge ticks.
func (e *env) runUntil(t sim.Time) {
	k := e.c.K
	for k.Now() < t {
		k.RunUntil(min(k.Now()+gaugeTick, t))
		e.sample()
	}
}

// runWhile advances the kernel in gauge ticks while cond holds, up to
// horizon; it reports whether cond was released before the horizon.
func (e *env) runWhile(cond func() bool, horizon sim.Time) bool {
	k := e.c.K
	for cond() {
		if k.Now() >= horizon {
			return false
		}
		k.RunUntil(min(k.Now()+gaugeTick, horizon))
		e.sample()
	}
	return true
}

func (e *env) close() { e.c.Close() }

// preload fills the table with keys via BatchWrite, one loader process per
// node, and runs the kernel until every loader is done.
func (e *env) preload(nodes []*netsim.Node, keys []string, value []byte) {
	per := (len(keys) + len(nodes) - 1) / len(nodes)
	for i, node := range nodes {
		part := keys[min(i*per, len(keys)):min((i+1)*per, len(keys))]
		e.c.K.Spawn("preload", func(p *sim.Proc) {
			batch := make(map[string][]byte, kvstore.MaxBatchItems)
			for j, k := range part {
				batch[k] = value
				if len(batch) == kvstore.MaxBatchItems || j == len(part)-1 {
					if _, err := e.kv.BatchWrite(p, node, batch); err != nil {
						panic("preload: " + err.Error())
					}
					clear(batch)
				}
			}
		})
	}
	e.c.K.Run()
	if n := e.kv.Len(); n != len(keys) {
		panic(fmt.Sprintf("preload stored %d keys, want %d", n, len(keys)))
	}
}

// serviceStats records the kvstore front-end counters for the window and
// returns the requests the shards served in it.
func (e *env) serviceStats() int64 {
	var reqs, shed, hot int64
	var busy time.Duration
	for i, st := range e.kv.ShardStats() {
		base := e.baseStats[i]
		fs := e.kv.ShardFrontend(i).Stats()
		n := st.Requests - base.Requests
		reqs += n
		hot = max(hot, n)
		busy += st.Busy - base.Busy
		shed += fs.Shed + fs.Jailed
	}
	o := e.o
	o.layer["service.requests"] = float64(reqs)
	o.layer["service.busy_s"] = busy.Seconds()
	o.layer["service.queue_depth_peak"] = float64(e.peakQueue)
	o.layer["service.shed"] = float64(shed)
	o.layer["kvstore.hot_share"] = ratio(float64(hot), float64(reqs))
	o.layer["sim.live_procs_peak"] = float64(e.peakProcs)
	o.layer["netsim.inflight_peak"] = float64(e.peakInflight)
	return reqs
}

// meter records the window's bill and checks that the meter's lines sum
// to its total.
func (e *env) meter(window time.Duration) {
	var sum float64
	for _, l := range e.c.Meter.Lines() {
		sum += float64(l.Cost)
		e.o.digest.str(l.Item)
		e.o.digest.i64(l.Count)
		e.o.digest.f64(float64(l.Cost))
	}
	total := float64(e.c.Meter.Total())
	e.o.expect("meter lines sum to Total", int64(math.Float64bits(sum)), int64(math.Float64bits(total)))
	e.o.usdPerHr = total / window.Hours()
}

// outcome is everything one run simulated: the op latencies, the layer
// counters and the output checks. Nothing in it depends on the host, so
// its digest is a pure function of the seed and the simulator.
type outcome struct {
	attempted, failed int64
	lat               []time.Duration // per completed op, in completion order
	usdPerHr          float64
	layer             map[string]float64
	checks            []equality
	digest            hasher
}

// equality is one output check: a count the driver made against the
// layer's own counter (or any other pair that must match exactly).
type equality struct {
	what      string
	got, want int64
}

func newOutcome() *outcome {
	return &outcome{layer: make(map[string]float64), digest: hasher{h: sha256.New()}}
}

// done records one completed op and its virtual latency.
func (o *outcome) done(lat time.Duration) {
	o.lat = append(o.lat, lat)
	o.digest.i64(int64(lat))
}

func (o *outcome) expect(what string, got, want int64) {
	o.checks = append(o.checks, equality{what, got, want})
}

// pct returns the p-th percentile (nearest rank) of the samples.
func pct(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// sum returns the digest over every simulated statistic: the latencies
// (already folded in), the layer counters in name order and the checks'
// operands.
func (o *outcome) sum() string {
	d := o.digest
	d.i64(o.attempted)
	d.i64(o.failed)
	d.f64(o.usdPerHr)
	names := make([]string, 0, len(o.layer))
	for n := range o.layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.str(n)
		d.f64(o.layer[n])
	}
	for _, c := range o.checks {
		d.str(c.what)
		d.i64(c.got)
		d.i64(c.want)
	}
	return hex.EncodeToString(d.h.Sum(nil)[:8])
}

// verify runs the output checks: every equality holds, and at a pinned
// seed the digest is the pinned one.
func verify(o *outcome, digest string, pins map[uint64]string, seed uint64) error {
	for _, c := range o.checks {
		if c.got != c.want {
			return fmt.Errorf("check failed: %s: got %d, want %d", c.what, c.got, c.want)
		}
	}
	if want, ok := pins[seed]; ok && want != digest {
		return fmt.Errorf("digest %s at pinned seed %d, want %s", digest, seed, want)
	}
	return nil
}

// hasher folds values into a running SHA-256 in a fixed binary layout.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func (d *hasher) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *hasher) f64(v float64) { d.i64(int64(math.Float64bits(v))) }

func (d *hasher) str(s string) {
	d.i64(int64(len(s)))
	d.h.Write([]byte(s))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
