package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// faas-burst: a flash crowd into SQS, drained by event-source pollers
// into a Lambda handler that writes every message to a sharded kvstore.
// The off period outlasts WarmTTL, so each burst meets a reaped warm pool
// and the provisioned-concurrency autoscaler; cold starts, long polls and
// the SQS event codec do the work.
const (
	buRate       = 2000.0 // messages/s while a burst is on
	buOn         = 10 * time.Second
	buOff        = 30 * time.Second
	buCycles     = 3
	buWarmTTL    = 20 * time.Second
	buPollers    = 128
	buShards     = 4
	buBodyBytes  = 128
	buVisibility = 30 * time.Second
	buFunction   = "ingest"
	// buHistory is how many records the table already holds when the
	// first burst arrives.
	buHistory = 50_000
)

var faasBurst = workload{
	name:  "faas-burst",
	loop:  "open",
	load:  "2000 msg/s Poisson for 10 s of every 40 s, 128 pollers",
	setup: setupBurst,
}

type burstRun struct {
	env
	length time.Duration
	client *netsim.Node
	q, dlq *queue.Queue
	esm    *faas.EventSourceMapping
	scaler *faas.Autoscaler
	gen    *loadgen.Generator
	pad    string

	sentAt             []sim.Time // due arrival per Seq
	handled            []int32    // times each Seq was handled
	sends, sendErrs    int64
	invocations, puts  int64
	putErrs, decodeErr int64
	putLat             []time.Duration
}

func setupBurst(seed uint64, scale float64, tr *tracer) instance {
	cfg := core.DefaultConfig()
	cfg.DDB.ShardCount = buShards
	cfg.Lambda.WarmTTL = buWarmTTL
	cycles := max(1, int(float64(buCycles)*scale+0.5))
	ops := int(1.1 * buRate * buOn.Seconds() * float64(cycles))
	r := &burstRun{
		env:     newEnv(seed, cfg, tr, ops),
		length:  time.Duration(cycles) * (buOn + buOff),
		sentAt:  make([]sim.Time, 0, ops),
		handled: make([]int32, 0, ops),
		putLat:  make([]time.Duration, 0, ops),
		pad:     strings.Repeat("x", buBodyBytes-8),
	}
	r.client = r.c.ClientNode("producer")
	history := make([]string, buHistory)
	for i := range history {
		history[i] = fmt.Sprintf("old/%08d", i)
	}
	r.preload([]*netsim.Node{r.client}, history, []byte(r.pad))
	r.q = r.c.SQS.CreateQueue("jobs", buVisibility)
	r.dlq = r.c.SQS.CreateQueue("jobs-dlq", buVisibility)
	if err := r.q.SetRedrivePolicy(queue.RedrivePolicy{MaxReceives: 3, DeadLetter: r.dlq}); err != nil {
		panic(err)
	}
	if err := r.c.Lambda.Register(faas.Function{Name: buFunction, MemoryMB: 512, Timeout: time.Minute, Handler: r.handle}); err != nil {
		panic(err)
	}
	var err error
	r.scaler, err = r.c.Lambda.Autoscale(faas.AutoscalerConfig{
		Function: buFunction, Max: buPollers, TargetUtilization: 0.7, Interval: 10 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	r.esm = r.c.Lambda.MapQueueN(r.q, buFunction, queue.MaxBatch, buPollers)
	r.startWindow()
	return r
}

func (r *burstRun) window() {
	start := r.c.K.Now()
	r.gen = loadgen.New(r.c.RNG.Fork(), &loadgen.Burst{On: loadgen.Poisson{Rate: buRate}, OnFor: buOn, OffFor: buOff})
	r.gen.Run(r.c.K, r.length, r.send)
	r.runUntil(start + sim.Time(r.length))
}

// send is one producer arrival: message Seq carries its number in the
// body, and its op latency runs from this due arrival to the handler's
// first write of it.
func (r *burstRun) send(p *sim.Proc, seq int) {
	r.sentAt = append(r.sentAt, p.Now())
	r.handled = append(r.handled, 0)
	body := append(fmt.Appendf(make([]byte, 0, buBodyBytes), "%08d", seq), r.pad...)
	sp := r.tr.begin(int64(seq), 0, "queue", "Send", p.Now())
	_, err := r.q.Send(p, r.client, body)
	r.tr.end(sp, p.Now())
	r.sends++
	if err != nil {
		r.sendErrs++
	}
}

// handle is the Lambda handler: decode the SQS event and write each
// message to the table.
func (r *burstRun) handle(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	p := ctx.Proc()
	r.invocations++
	ev, err := faas.DecodeSQSEvent(payload)
	if err != nil {
		r.decodeErr++
		return nil, err
	}
	inv := r.tr.begin(int64(r.invocations), 0, "faas", "handler", p.Now())
	for _, rec := range ev.Records {
		seq, err := strconv.Atoi(rec.Body[:8])
		if err != nil || seq >= len(r.handled) {
			r.decodeErr++
			continue
		}
		start := p.Now()
		sp := r.tr.begin(int64(seq), inv, "kvstore", "Put", start)
		_, err = r.c.DDB.Put(p, ctx.Node(), "msg/"+rec.Body[:8], []byte(rec.Body))
		r.tr.end(sp, p.Now())
		r.puts++
		r.putLat = append(r.putLat, p.Now()-start)
		if err != nil {
			r.putErrs++
			continue
		}
		r.handled[seq]++
		if r.handled[seq] == 1 {
			r.o.done(p.Now() - r.sentAt[seq])
		}
	}
	r.tr.end(inv, p.Now())
	return nil, nil
}

func (r *burstRun) finish() *outcome {
	o := r.o
	o.attempted = int64(r.gen.Submitted)
	o.failed = o.attempted - int64(len(o.lat))
	reqs := r.serviceStats()
	st, err := r.c.Lambda.Stats(buFunction)
	if err != nil {
		panic(err)
	}
	var unique, dups int64
	for _, n := range r.handled {
		if n > 0 {
			unique++
		}
		if n > 1 {
			dups++
		}
	}
	queued := int64(r.q.Depth() + r.q.InFlight() + r.dlq.Depth() + r.dlq.InFlight())
	o.expect("sent = handled once + queued + dead-lettered", unique+queued+r.q.DeadLettered(), r.sends)
	o.expect("no message handled twice", dups, 0)
	o.expect("every arrival sent", r.sends-r.sendErrs, o.attempted)
	o.expect("kvstore round trips = handler puts", reqs, r.puts)
	o.expect("faas invocations = handler calls", st.Invocations, r.invocations)
	o.expect("handler errors", r.putErrs+r.decodeErr, 0)
	// Every request bills one SQS request (all payloads are far below
	// 64KB): the driver's sends, one receive per poll and one batch delete
	// per successful invocation. Receives are what remains.
	receives := r.c.Meter.Count("sqs.request") - r.sends - (st.Invocations - st.Errors)
	fleet := r.c.Lambda.FleetStats()
	o.layer["faas.invocations"] = float64(st.Invocations)
	o.layer["faas.cold_frac"] = st.ColdStartRate()
	o.layer["faas.peak_concurrency"] = float64(fleet.PeakConcurrency)
	o.layer["queue.receives"] = float64(receives)
	o.layer["queue.empty_receive_frac"] = ratio(float64(receives-st.Invocations), float64(receives))
	o.layer["queue.dead_lettered"] = float64(r.q.DeadLettered())
	o.layer["kvstore.put.virt_p99_ms"] = ms(pct(r.putLat, 99))
	r.meter(r.length)
	r.esm.Stop()
	r.scaler.Stop()
	return o
}
