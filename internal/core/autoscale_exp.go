package core

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/loadgen"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// RunAutoscale quantifies §1.2's "one step forward": under workload-driven
// load, FaaS trades a large constant invocation overhead for elasticity.
// A CPU-bound request (50ms of single-core work) is offered at Poisson
// rates below, near, and above a fixed server's capacity:
//
//   - Lambda autoscales containers, so latency stays flat at the
//     invocation overhead no matter the offered rate;
//   - a fixed m5.large (2 cores => ~40 req/s capacity) is 7x faster per
//     request until saturation, after which its queue — and p99 — diverge.
//
// This is the honest counterweight to E1-E8: the paper's critique is not
// that autoscaling is worthless, but that it currently costs data gravity
// and addressability.
func RunAutoscale(o Options) []*Table {
	t := &Table{
		Title:  "§1.2 Autoscaling under open-loop load (50ms CPU-bound requests)",
		Header: []string{"Offered load", "Lambda p50", "Lambda p99", "Fixed EC2 p50", "Fixed EC2 p99"},
	}
	for _, r := range runAutoscale(o) {
		t.AddRow(fmt.Sprintf("%.0f req/s", r.rate),
			FmtDur(r.lambda.p50), FmtDur(r.lambda.p99), FmtDur(r.ec2.p50), FmtDur(r.ec2.p99))
	}
	t.AddNote("fixed fleet capacity is ~40 req/s (2 cores / 50ms); above it the queue diverges")
	t.AddNote("Lambda's flat latency is the paper's 'step forward'; its height is the overhead E1 measures")
	return []*Table{t}
}

// quantiles is one platform's completion-latency median and tail.
type quantiles struct{ p50, p99 time.Duration }

// autoscaleRow is one offered load's measurement on both platforms.
type autoscaleRow struct {
	rate        float64 // offered req/s
	lambda, ec2 quantiles
}

func runAutoscale(o Options) []autoscaleRow {
	const window = 2 * time.Minute
	rates := []float64{10, 30, 50}
	// The 3 rates × 2 platforms make six independent seed-repetition
	// simulations; even-numbered points run the Lambda side, odd the EC2
	// side, preserving the original per-point seeds exactly.
	points := sweep.Points(o.Workers, 2*len(rates), func(i int) quantiles {
		rate := rates[i/2]
		if i%2 == 0 {
			return autoscaleLambda(o.withSeed(o.Seed+uint64(i/2)), rate, window)
		}
		return autoscaleEC2(o.withSeed(o.Seed+uint64(i/2)+100), rate, window)
	})
	rows := make([]autoscaleRow, len(rates))
	for i, rate := range rates {
		rows[i] = autoscaleRow{rate: rate, lambda: points[2*i], ec2: points[2*i+1]}
	}
	return rows
}

// workBytes is 50ms of single-core work, expressed for each platform's
// calibrated compute rate.
const (
	lambdaWorkBytes = int64(0.05 * 468.6e6) // full-core function
	ec2WorkBytes    = int64(0.05 * 1100e6)  // m5.large core
)

func autoscaleLambda(o Options, rate float64, window time.Duration) quantiles {
	c := NewCloud(o.Seed)
	defer c.Close()
	if err := c.Lambda.Register(faas.Function{
		Name: "work", MemoryMB: 1769, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Compute(lambdaWorkBytes)
			return nil, nil
		},
	}); err != nil {
		panic(err)
	}
	rec := o.newSummary("lambda")
	gen := loadgen.New(c.RNG.Fork(), loadgen.Poisson{Rate: rate})
	completed := 0
	gen.Run(c.K, window, func(p *sim.Proc, _ int) {
		start := p.Now()
		if _, _, err := c.Lambda.Invoke(p, "work", nil); err != nil {
			panic(err)
		}
		rec.Add(time.Duration(p.Now() - start))
		completed++
	})
	if !runKernelUntil(c.K, sim.Time(window)+sim.Time(30*time.Minute), sim.Time(10*time.Second),
		func() bool { return completed == gen.Submitted && gen.Submitted > 0 }) {
		panic("autoscale: lambda drain stalled")
	}
	return quantiles{rec.Median(), rec.Percentile(99)}
}

func autoscaleEC2(o Options, rate float64, window time.Duration) quantiles {
	c := NewCloud(o.Seed)
	defer c.Close()
	rec := o.newSummary("ec2")

	type req struct {
		start sim.Time
		done  *sim.Latch
	}
	queue := sim.NewQueue[req](0)
	completed := 0

	ready := &sim.Latch{}
	c.K.Spawn("server", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M5Large, ClientRack)
		for w := 0; w < inst.Type().VCPUs; w++ {
			p.Spawn("worker", func(wp *sim.Proc) {
				for {
					r, ok := queue.Get(wp)
					if !ok {
						return
					}
					if err := inst.Compute(wp, ec2WorkBytes); err != nil {
						return
					}
					rec.Add(time.Duration(wp.Now() - r.start))
					completed++
					r.done.Release()
				}
			})
		}
		ready.Release()
	})

	gen := loadgen.New(c.RNG.Fork(), loadgen.Poisson{Rate: rate})
	var submitted int
	c.K.Spawn("drive", func(p *sim.Proc) {
		ready.Wait(p) // wait out instance boot
		gen.Run(p.Kernel(), window, func(rp *sim.Proc, _ int) {
			submitted++
			// Sub-millisecond delivery to the server's queue.
			rp.Sleep(300 * time.Microsecond)
			done := &sim.Latch{}
			queue.Put(rp, req{start: rp.Now(), done: done})
			done.Wait(rp)
		})
	})
	if !runKernelUntil(c.K, sim.Time(window)+sim.Time(2*time.Hour), sim.Time(30*time.Second),
		func() bool { return submitted > 0 && completed == submitted }) {
		panic("autoscale: ec2 drain stalled")
	}
	return quantiles{rec.Median(), rec.Percentile(99)}
}
