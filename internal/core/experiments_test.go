package core

import (
	"strings"
	"testing"
	"time"
)

func within(t *testing.T, what string, got time.Duration, lo, hi time.Duration) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v, want within [%v, %v]", what, got, lo, hi)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Errorf("registry has %d experiments, want 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Run == nil || e.Title == "" {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := ExperimentByID(e.ID); !ok || got.ID != e.ID {
			t.Errorf("ExperimentByID(%q) failed", e.ID)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("ExperimentByID accepted unknown id")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := runTable1(Options{Seed: 1})
	within(t, "invoke", r.invoke, 285*time.Millisecond, 320*time.Millisecond)      // paper: 303ms
	within(t, "lambda-s3", r.lambdaS3, 100*time.Millisecond, 116*time.Millisecond) // paper: 108ms
	within(t, "lambda-ddb", r.lambdaDDB, 10*time.Millisecond, 12*time.Millisecond) // paper: 11ms
	within(t, "ec2-s3", r.ec2S3, 100*time.Millisecond, 116*time.Millisecond)       // paper: 106ms
	within(t, "ec2-ddb", r.ec2DDB, 10*time.Millisecond, 12*time.Millisecond)       // paper: 11ms
	within(t, "zmq", r.zmq, 270*time.Microsecond, 310*time.Microsecond)            // paper: 290µs

	// The shape that matters: three orders of magnitude between pure
	// functional messaging and direct networking.
	if ratio := float64(r.invoke) / float64(r.zmq); ratio < 900 || ratio > 1200 {
		t.Errorf("invoke/zmq ratio = %.0f, paper reports 1,045x", ratio)
	}
	if ratio := float64(r.lambdaS3) / float64(r.zmq); ratio < 300 || ratio > 450 {
		t.Errorf("s3/zmq ratio = %.0f, paper reports 372x", ratio)
	}
}

func TestFigure1Headline(t *testing.T) {
	tb := RunFigure1(Options{Seed: 1})[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("figure1 rows = %d", len(tb.Rows))
	}
	joined := strings.Join(tb.Notes, "\n")
	if !strings.Contains(joined, "Figure 1") {
		t.Error("chart missing from notes")
	}
}

func TestTrainingMatchesPaper(t *testing.T) {
	lambda := runLambdaTraining(Options{Seed: 1})
	ec2 := runEC2Training(Options{Seed: 1})
	within(t, "lambda total", lambda.total, 440*time.Minute, 490*time.Minute) // paper: 465min
	within(t, "ec2 total", ec2.total, 20*time.Minute, 24*time.Minute)         // paper: ~21.7min

	slow := lambda.total.Seconds() / ec2.total.Seconds()
	if slow < 19 || slow > 24 {
		t.Errorf("slowdown = %.1fx, paper reports 21x", slow)
	}
	if n := lambda.executions; n < 30 || n > 33 {
		t.Errorf("lambda executions = %d, paper reports 31", n)
	}
	lambdaCost, ec2Cost := float64(lambda.cost), float64(ec2.cost)
	if lambdaCost < 0.27 || lambdaCost > 0.31 {
		t.Errorf("lambda cost = $%.4f, paper reports $0.29", lambdaCost)
	}
	if ec2Cost < 0.03 || ec2Cost > 0.05 {
		t.Errorf("ec2 cost = $%.4f, paper reports $0.04", ec2Cost)
	}
	if ratio := lambdaCost / ec2Cost; ratio < 6 || ratio > 9 {
		t.Errorf("cost ratio = %.1fx, paper reports 7.3x", ratio)
	}
}

func TestServingMatchesPaper(t *testing.T) {
	r := runServing(Options{Seed: 1})
	within(t, "lambda-fetch", r.lambdaFetch, 525*time.Millisecond, 590*time.Millisecond) // paper: 559ms
	within(t, "lambda-opt", r.lambdaOpt, 425*time.Millisecond, 470*time.Millisecond)     // paper: 447ms
	within(t, "ec2-sqs", r.ec2SQS, 11*time.Millisecond, 15*time.Millisecond)             // paper: 13ms
	within(t, "ec2-zmq", r.ec2ZMQ, 2500*time.Microsecond, 3300*time.Microsecond)         // paper: 2.8ms

	if r.lambdaFetch <= r.lambdaOpt {
		t.Error("model fetch variant should be slower than compiled-in")
	}
	if ratio := float64(r.lambdaOpt) / float64(r.ec2ZMQ); ratio < 100 || ratio > 200 {
		t.Errorf("opt/zmq = %.0fx, paper reports 127x", ratio)
	}
}

func TestServingCostMatchesPaper(t *testing.T) {
	r := runServingCost(Options{Seed: 1})
	if r.sqsHourly < 1500 || r.sqsHourly > 1700 {
		t.Errorf("SQS hourly = $%.0f, paper reports $1,584", r.sqsHourly)
	}
	if r.ec2Hourly < 26 || r.ec2Hourly > 30 {
		t.Errorf("EC2 hourly = $%.2f, paper reports $27.84", r.ec2Hourly)
	}
	if ratio := r.sqsHourly / r.ec2Hourly; ratio < 50 || ratio > 65 {
		t.Errorf("cost ratio = %.0fx, paper reports 57x", ratio)
	}
}

func TestElectionMatchesPaper(t *testing.T) {
	r := runElection(Options{Seed: 1})
	within(t, "round", r.round, 14*time.Second, 19*time.Second) // paper: 16.7s
	if r.sharePct < 1.5 || r.sharePct > 2.2 {
		t.Errorf("lifetime share = %.2f%%, paper reports 1.9%%", r.sharePct)
	}
	if r.hourly1000 < 400 || r.hourly1000 > 520 {
		t.Errorf("1,000-node cost = $%.2f/hr, paper reports >= $450/hr", r.hourly1000)
	}
}

func TestBandwidthMatchesPaper(t *testing.T) {
	r := runBandwidth(Options{Seed: 1})
	first, last := r[0], r[len(r)-1]
	if first.functions != 1 || last.functions != 20 {
		t.Fatalf("sweep spans %d..%d functions, want 1..20", first.functions, last.functions)
	}
	solo, packed := first.mbps, last.mbps
	if solo < 520 || solo > 545 {
		t.Errorf("solo bandwidth = %.1f Mbps, paper reports 538", solo)
	}
	if packed < 24 || packed > 30 {
		t.Errorf("20-way bandwidth = %.1f Mbps, paper reports 28.7", packed)
	}
	if ratio := solo / packed; ratio < 18 || ratio > 22 {
		t.Errorf("collapse factor = %.1fx, want ~20x", ratio)
	}
}

func TestWorkflowOverheadShape(t *testing.T) {
	r := runWorkflow(Options{Seed: 1})
	if r.pipeline < 3*time.Second {
		t.Errorf("FaaS 8-step pipeline = %v, implausibly fast", r.pipeline)
	}
	if r.monolith > 100*time.Millisecond {
		t.Errorf("monolith = %v, implausibly slow", r.monolith)
	}
	if ratio := float64(r.pipeline) / float64(r.monolith); ratio < 50 {
		t.Errorf("pipeline/monolith = %.0fx, want >= 50x", ratio)
	}
}

func TestFirecrackerAblation(t *testing.T) {
	r := runFirecracker(Options{Seed: 1})
	// Warm path (Table 1 conditions) barely moves: "modest effects".
	diff := float64(r.warmClassic-r.warmFire) / float64(r.warmClassic)
	if diff < -0.05 || diff > 0.05 {
		t.Errorf("warm path moved %.1f%% under Firecracker, want ~0", diff*100)
	}
	if r.coldFire >= r.coldClassic {
		t.Error("Firecracker should cut cold starts")
	}
	if r.coldFire < 400*time.Millisecond {
		t.Errorf("Firecracker cold invoke = %v; should still carry ~300ms invoke overhead", r.coldFire)
	}
}

func TestFastNICAblation(t *testing.T) {
	r := runFastNIC(Options{Seed: 1})
	last := r[len(r)-1]
	if last.functions != 64 {
		t.Fatalf("sweep ends at %d functions, want 64", last.functions)
	}
	perCoreMBps := last.mbps / 8
	if perCoreMBps < 170 || perCoreMBps > 220 {
		t.Errorf("per-function bandwidth at 64-way = %.0f MB/s, paper predicts ~200", perCoreMBps)
	}
	if perCoreMBps >= SSDBandwidthMBps {
		t.Error("64-way packing should still trail an SSD")
	}
}

func TestFutureClosesTheGaps(t *testing.T) {
	r := runFuture(Options{Seed: 1})
	// Near-EC2 speed: paper's EC2 run is ~21.7min.
	within(t, "future training", r.trainTime, 19*time.Minute, 25*time.Minute)
	if r.serveBatch > 5*time.Millisecond {
		t.Errorf("future serving = %v, want ZeroMQ-class", r.serveBatch)
	}
	if r.electRound > time.Second {
		t.Errorf("future election = %v, want sub-second", r.electRound)
	}
}

func TestElectionSweepShape(t *testing.T) {
	rows := runElectionSweep(Options{Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(rows))
	}
	prev := time.Duration(1 << 62)
	for _, r := range rows {
		if r.round > prev+time.Second { // allow jitter, but trend must fall
			t.Errorf("round latency did not shrink with polling rate: %v after %v", r.round, prev)
		}
		prev = r.round
	}
}

func TestAutoscaleShape(t *testing.T) {
	rows := runAutoscale(Options{Seed: 1})
	if len(rows) != 3 || rows[0].rate != 10 || rows[2].rate != 50 {
		t.Fatalf("rows = %+v, want 10/30/50 req/s load levels", rows)
	}
	// Below capacity: EC2 p50 ~50ms beats Lambda's ~350ms.
	low := rows[0]
	if low.ec2.p50 >= low.lambda.p50 {
		t.Errorf("below capacity EC2 (%v) should beat Lambda (%v)", low.ec2.p50, low.lambda.p50)
	}
	if low.ec2.p50 < 45*time.Millisecond || low.ec2.p50 > 80*time.Millisecond {
		t.Errorf("EC2 p50 at low load = %v, want ~50ms", low.ec2.p50)
	}
	// Above capacity: EC2 p99 diverges; Lambda p99 stays near its p50.
	hi := rows[2]
	if hi.ec2.p99 < 5*time.Second {
		t.Errorf("overloaded EC2 p99 = %v, want queueing divergence (>5s)", hi.ec2.p99)
	}
	if hi.lambda.p99 > 1500*time.Millisecond {
		t.Errorf("Lambda p99 under load = %v, want flat (autoscaling)", hi.lambda.p99)
	}
}

// TestExperimentsDeterministic: identical output across runs with the same
// seed.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"table1", "servingcost", "bandwidth", "regionscale", "faasscale"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		if renderAll(e.Run(Options{Seed: 7})) != renderAll(e.Run(Options{Seed: 7})) {
			t.Errorf("experiment %s is nondeterministic", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("x", "y")
	tb.AddNote("n %d", 1)
	out := tb.Render()
	for _, want := range []string{"T\n", "a", "bb", "x", "y", "note: n 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1.5min",
		1500 * time.Millisecond: "1.50s",
		250 * time.Millisecond:  "250.0ms",
		42 * time.Microsecond:   "42µs",
	}
	for in, want := range cases {
		if got := FmtDur(in); got != want {
			t.Errorf("FmtDur(%v) = %q, want %q", in, got, want)
		}
	}
	byteCases := map[int64]string{
		999:           "999B",
		6_700:         "6.7KB",
		13_200_000:    "13.20MB",
		2_500_000_000: "2.50GB",
	}
	for in, want := range byteCases {
		if got := FmtBytes(in); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if FmtRatio(1045) != "1045x" || FmtRatio(37.9) != "37.9x" || FmtRatio(1.0) != "1.00x" {
		t.Error("FmtRatio formats wrong")
	}
}
