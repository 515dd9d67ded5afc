package core

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// signupSteps is the Autodesk-style account-creation pipeline §2 describes:
// each invocation handles a small portion of the logic, chained through
// queues with state parked in the object store between steps.
func signupSteps() []workflow.Step {
	mk := func(name string, reads bool) workflow.Step {
		return workflow.Step{
			Name:        name,
			ReadsState:  reads,
			WritesState: true,
			Work: func(ctx *faas.Ctx, d []byte) ([]byte, error) {
				ctx.Compute(int64(len(d)) + 1024) // trivial business logic
				return append(d, []byte("|"+name)...), nil
			},
		}
	}
	return []workflow.Step{
		mk("validate-input", false),
		mk("check-duplicate", true),
		mk("create-account", true),
		mk("provision-profile", true),
		mk("set-permissions", true),
		mk("configure-billing", true),
		mk("send-verification", true),
		mk("audit-log", true),
	}
}

// workflowResult is the mean end-to-end request latency of each side.
type workflowResult struct {
	pipeline, monolith time.Duration
}

// RunWorkflow regenerates the §2 function-composition measurement: the
// per-request overhead of an 8-step event-driven signup pipeline on FaaS,
// against the same logic run in-process on one EC2 instance. The paper's
// Autodesk case study reports ten-minute end-to-end signups and attributes
// part of that to "the overheads of Lambda task handling and state
// management"; this experiment isolates exactly that infrastructure share.
func RunWorkflow(o Options) []*Table {
	r := runWorkflow(o)
	t := &Table{
		Title:  "§2 Function composition: 8-step signup pipeline, 20 requests",
		Header: []string{"Implementation", "Mean latency", "Per step", "vs monolith"},
	}
	steps := float64(len(signupSteps()))
	t.AddRow("FaaS pipeline (SQS + Lambda + S3 state)",
		FmtDur(r.pipeline), FmtDur(time.Duration(float64(r.pipeline)/steps)),
		FmtRatio(float64(r.pipeline)/float64(r.monolith))+" slower")
	t.AddRow("Single EC2 process (local state)",
		FmtDur(r.monolith), FmtDur(time.Duration(float64(r.monolith)/steps)), "1x")
	t.AddNote("paper context: Autodesk's Lambda-based signup averaged ~10 minutes end to end;")
	t.AddNote("the infrastructure share measured here is pure queue/invoke/state overhead —")
	t.AddNote("the business logic itself accounts for microseconds")
	return []*Table{t}
}

func runWorkflow(o Options) workflowResult {
	const requests = 20

	// FaaS pipeline.
	c := NewCloud(o.Seed)
	pl := workflow.New("signup", c.Lambda, c.SQS, c.S3, signupSteps())
	if err := pl.Deploy(c.K); err != nil {
		panic(err)
	}
	rec := o.newSummary("pipeline")
	client := c.ClientNode("client")
	drive(c.K, "workflow pipeline", sim.Time(4*time.Hour), sim.Time(time.Minute), func(p *sim.Proc) {
		for i := 0; i < requests; i++ {
			pr, err := pl.Submit(p, client, []byte(fmt.Sprintf("user-%03d", i)))
			if err != nil {
				panic(err)
			}
			res := pr.Get(p)
			rec.Add(res.Latency)
		}
		pl.Stop()
	})
	c.Close()

	// Monolith baseline: the same eight steps in one process with local
	// state on the instance volume.
	c2 := NewCloud(o.Seed + 1)
	mono := o.newSummary("monolith")
	drive(c2.K, "workflow monolith", sim.Time(time.Hour), sim.Time(time.Minute), func(p *sim.Proc) {
		inst := c2.EC2.Launch(p, compute.M5Large, ClientRack)
		for i := 0; i < requests; i++ {
			start := p.Now()
			data := []byte(fmt.Sprintf("user-%03d", i))
			for s := 0; s < 8; s++ {
				key := fmt.Sprintf("state-%d-%d", i, s)
				if s > 0 {
					if err := inst.Volume().Read(p, key, int64(len(data))); err != nil {
						panic(err)
					}
				}
				if err := inst.Compute(p, int64(len(data))+1024); err != nil {
					panic(err)
				}
				if err := inst.Volume().Write(p, key, int64(len(data))); err != nil {
					panic(err)
				}
			}
			mono.Add(time.Duration(p.Now() - start))
		}
	})
	c2.Close()
	return workflowResult{pipeline: rec.Mean(), monolith: mono.Mean()}
}
