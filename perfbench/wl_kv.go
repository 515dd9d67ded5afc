package main

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// kv-openloop: Poisson arrivals from 8 client hosts into an 8-shard x
// 4-slot table (~7,650 req/s of service capacity, so ~80% busy at 6,000
// req/s). One simulated process per arrival makes this the kernel-,
// fabric- and service-heavy mix; it runs no CRDT, JSON, statecache, faas
// or queue code.
const (
	kvRate       = 6000.0
	kvWindow     = 30 * time.Second
	kvDrain      = time.Second
	kvClients    = 8
	kvShards     = 8
	kvSlots      = 4
	kvKeys       = 100_000
	kvValueBytes = 256
)

var kvOpenLoop = workload{
	name:  "kv-openloop",
	loop:  "open",
	load:  "6000 req/s Poisson from 8 client hosts",
	setup: setupKV,
}

type kvRun struct {
	env
	seed    uint64
	length  time.Duration
	clients []*netsim.Node
	keys    []string
	value   []byte
	gen     *loadgen.Generator

	puts, gets, misses int64
	getLat, putLat     []time.Duration
}

func kvKey(i int) string {
	b := append(make([]byte, 0, 12), "user/"...)
	s := strconv.Itoa(i)
	for n := len(s); n < 7; n++ {
		b = append(b, '0')
	}
	return string(append(b, s...))
}

func setupKV(seed uint64, scale float64, tr *tracer) instance {
	cfg := core.DefaultConfig()
	cfg.DDB.ShardCount = kvShards
	cfg.DDB.ShardConcurrency = kvSlots
	window := time.Duration(float64(kvWindow) * scale)
	ops := int(kvRate * window.Seconds() * 1.1)
	r := &kvRun{
		env:    newEnv(seed, cfg, tr, ops),
		seed:   seed,
		length: window,
		value:  make([]byte, kvValueBytes),
		keys:   make([]string, kvKeys),
		getLat: make([]time.Duration, 0, ops/2),
		putLat: make([]time.Duration, 0, ops/2),
	}
	for i := range r.keys {
		r.keys[i] = kvKey(i)
	}
	for i := 0; i < kvClients; i++ {
		r.clients = append(r.clients, r.c.ClientNode(fmt.Sprintf("kv-client-%d", i)))
	}
	r.preload(r.clients, r.keys, r.value)
	r.startWindow()
	return r
}

func (r *kvRun) window() {
	start := r.c.K.Now()
	r.gen = loadgen.New(r.c.RNG.Fork(), loadgen.Poisson{Rate: kvRate})
	r.gen.Run(r.c.K, r.length, r.request)
	r.runUntil(start + sim.Time(r.length+kvDrain))
}

// request is one client op: the key and the op kind are pure functions of
// the seed and the arrival number, and the op is timed from its due
// arrival (the process starts at the arrival instant).
func (r *kvRun) request(p *sim.Proc, seq int) {
	h := simrand.Derive(r.seed, seq)
	key := r.keys[h%kvKeys]
	node := r.clients[seq%kvClients]
	due := p.Now()
	root := r.tr.begin(int64(seq), 0, "loadgen", "arrival", due)
	var err error
	switch (h >> 40) % 4 {
	case 0, 1:
		sp := r.tr.begin(int64(seq), root, "kvstore", "Put", p.Now())
		_, err = r.c.DDB.Put(p, node, key, r.value)
		r.tr.end(sp, p.Now())
		r.puts++
		r.putLat = append(r.putLat, p.Now()-due)
	default:
		consistent := (h>>40)%4 == 2
		op := "GetEventual"
		if consistent {
			op = "GetConsistent"
		}
		sp := r.tr.begin(int64(seq), root, "kvstore", op, p.Now())
		_, err = r.c.DDB.Get(p, node, key, consistent)
		r.tr.end(sp, p.Now())
		r.gets++
		r.getLat = append(r.getLat, p.Now()-due)
	}
	r.tr.end(root, p.Now())
	switch {
	case err == nil:
		r.o.done(p.Now() - due)
	case errors.Is(err, kvstore.ErrNotFound):
		r.misses++
	}
}

func (r *kvRun) finish() *outcome {
	o := r.o
	o.attempted = int64(r.gen.Submitted)
	o.failed = o.attempted - int64(len(o.lat))
	reqs := r.serviceStats()
	o.expect("kvstore round trips = driver calls", reqs, r.puts+r.gets)
	o.expect("every arrival completed", r.puts+r.gets, o.attempted)
	o.expect("no reads of preloaded keys missed", r.misses, 0)
	o.expect("dynamodb.write units = puts (one unit each)", r.c.Meter.Count("dynamodb.write"), r.puts)
	o.layer["kvstore.get.virt_p99_ms"] = ms(pct(r.getLat, 99))
	o.layer["kvstore.put.virt_p99_ms"] = ms(pct(r.putLat, 99))
	r.meter(r.length + kvDrain)
	return o
}
