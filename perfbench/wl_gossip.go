package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
)

// statecache-gossip: 8 replicas on VM nodes, ~10^4 preloaded registers,
// one closed-loop worker per replica mixing reads and writes, default
// digest gossip every 200 ms and a 1 s write-behind flush. The per-round
// key walk and the CRDT codec dominate; reads touch local memory only,
// while writes create dirty keys, gossip payload and flushes.
const (
	gsReplicas = 8
	gsRegs     = 10_000
	gsCounters = 1_000
	gsThink    = 10 * time.Millisecond // mean exponential think time
	gsWindow   = 20 * time.Second
	// gsQuiet is how long no merge may change any replica before the
	// cluster counts as converged; gsQuiesceLimit bounds the wait.
	gsQuiet        = 2 * time.Second
	gsQuiesceLimit = time.Minute
)

var stateCacheGossip = workload{
	name:  "statecache-gossip",
	loop:  "closed",
	load:  "8 clients, one per replica, 10 ms mean exponential think time",
	setup: setupGossip,
}

// lww is the register state the driver expects to win: the lexicographic
// maximum of (stamp, replica, value), the register's own join order.
type lww struct {
	stamp        int64
	replica, val string
}

func (a lww) less(b lww) bool {
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.replica != b.replica {
		return a.replica < b.replica
	}
	return a.val < b.val
}

type gossipRun struct {
	env
	length  time.Duration
	cl      *statecache.Cluster
	caches  []*statecache.Cache
	regs    []string
	ctrs    []string
	stopped bool

	calls   int64
	regWant map[string]lww
	ctrWant map[string]int64
}

func setupGossip(seed uint64, scale float64, tr *tracer) instance {
	window := time.Duration(float64(gsWindow) * scale)
	r := &gossipRun{
		env:     newEnv(seed, core.DefaultConfig(), tr, int(1.1*gsReplicas*float64(window/gsThink))),
		length:  window,
		regWant: make(map[string]lww),
		ctrWant: make(map[string]int64),
	}
	r.cl = statecache.New("cache", r.c.Net, r.c.DDB, r.c.RNG.Fork(),
		statecache.DefaultConfig(), r.c.Catalog, r.c.Meter)
	for i := 0; i < gsRegs; i++ {
		r.regs = append(r.regs, fmt.Sprintf("reg/%05d", i))
	}
	for i := 0; i < gsCounters; i++ {
		r.ctrs = append(r.ctrs, fmt.Sprintf("ctr/%04d", i))
	}
	for i := 0; i < gsReplicas; i++ {
		node := r.c.Net.NewNode(fmt.Sprintf("vm-%d", i), 1, netsim.Mbps(538))
		c := r.cl.Attach(node)
		for _, k := range r.regs {
			c.Preload(k, "v0")
		}
		r.caches = append(r.caches, c)
	}
	r.startWindow()
	return r
}

func (r *gossipRun) window() {
	start := r.c.K.Now()
	end := start + sim.Time(r.length)
	for i, c := range r.caches {
		rng := r.c.RNG.Fork()
		r.c.K.Spawn("worker", func(p *sim.Proc) { r.worker(p, i, c, rng, end) })
	}
	r.runUntil(end)
}

// worker is one closed-loop client: think, then one cache call, until
// the window ends.
func (r *gossipRun) worker(p *sim.Proc, id int, c *statecache.Cache, rng *simrand.RNG, end sim.Time) {
	for seq := int64(id) << 32; ; seq++ {
		p.Sleep(time.Duration(rng.ExpFloat64() * float64(gsThink)))
		if p.Now() >= end || r.stopped {
			return
		}
		u := rng.Intn(10)
		start := p.Now()
		var sp int32
		switch {
		case u < 3:
			key := r.regs[rng.Intn(len(r.regs))]
			sp = r.tr.begin(seq, 0, "statecache", "Register", start)
			c.Register(p, key)
		case u < 6:
			key := r.ctrs[rng.Intn(len(r.ctrs))]
			sp = r.tr.begin(seq, 0, "statecache", "Counter", start)
			c.Counter(p, key)
		case u < 8:
			key := r.regs[rng.Intn(len(r.regs))]
			val := "v" + strconv.FormatInt(seq, 36)
			sp = r.tr.begin(seq, 0, "statecache", "SetRegister", start)
			c.SetRegister(p, key, val)
			// The register stamps the write when the call returns.
			if w := (lww{int64(p.Now()), c.ReplicaID(), val}); r.regWant[key].less(w) {
				r.regWant[key] = w
			}
		default:
			key := r.ctrs[rng.Intn(len(r.ctrs))]
			delta := int64(rng.Intn(9)) - 3
			sp = r.tr.begin(seq, 0, "statecache", "AddCounter", start)
			c.AddCounter(p, key, delta)
			r.ctrWant[key] += delta
		}
		r.tr.end(sp, p.Now())
		r.calls++
		r.o.done(p.Now() - start)
	}
}

func (r *gossipRun) finish() *outcome {
	o := r.o
	now := r.c.K.Now()
	r.cl.Accrue(now)
	o.attempted = r.calls
	reqs := r.serviceStats()
	flushes := r.cl.FlushWrites()
	g := r.cl.GossipBytes()
	o.layer["statecache.gossip_rounds"] = float64(r.cl.GossipRounds())
	o.layer["statecache.aborted_rounds"] = float64(r.cl.AbortedRounds())
	o.layer["statecache.gossip_mb"] = float64(g.Total()) / 1e6
	o.layer["statecache.payload_frac"] = ratio(float64(g.Payload+g.Push), float64(g.Total()))
	o.layer["statecache.flush_writes"] = float64(flushes)
	o.layer["statecache.stale_p99_ms"] = ms(r.cl.Staleness().Percentile(99))
	// Every flush attempt is one consistent Get plus one ConditionalPut;
	// the attempts that did not count as flush writes lost their condition.
	o.layer["kvstore.cond_fail"] = float64(reqs/2 - flushes)
	r.meter(r.length)

	// Quiesce: stop the clients and let gossip and the write-behind flush
	// settle, then every replica must hold the driver's expected state.
	r.stopped = true
	quiet := func() bool {
		for _, c := range r.caches {
			if c.DirtyKeys() > 0 {
				return true
			}
		}
		return r.c.K.Now()-r.cl.LastMergeChange() < sim.Time(gsQuiet)
	}
	converged := r.runWhile(quiet, r.c.K.Now()+sim.Time(gsQuiesceLimit))
	o.expect("cluster quiesced (no dirty keys, no merges)", b2i(converged), 1)
	var served int64
	for _, c := range r.caches {
		served += c.Ops()
	}
	o.expect("cache ops served = driver calls", served, r.calls)
	var regBad, ctrBad int64
	for _, k := range r.regs {
		want := "v0"
		if w, ok := r.regWant[k]; ok {
			want = w.val
		}
		for _, c := range r.caches {
			if c.PeekRegister(k) != want {
				regBad++
			}
		}
	}
	for _, k := range r.ctrs {
		for _, c := range r.caches {
			if c.PeekCounter(k) != r.ctrWant[k] {
				ctrBad++
			}
		}
	}
	o.expect("replicas hold the last-writer-wins register on every key", regBad, 0)
	o.expect("replicas hold every counter's delta sum", ctrBad, 0)
	return o
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
