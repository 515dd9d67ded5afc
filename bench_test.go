package repro

// One benchmark per table and figure in the paper. Each benchmark runs the
// corresponding experiment end to end on the simulated cloud and reports
// the headline quantity as a custom metric, so `go test -bench=.` doubles
// as the reproduction harness. Results are deterministic per seed; the
// ns/op column measures simulator wall time, the custom metrics carry the
// paper-comparable numbers.

import (
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// headline extracts a rendered cell from an experiment's first table.
func headline(b *testing.B, tables []*core.Table, rowPrefix string, col int) string {
	b.Helper()
	for _, row := range tables[0].Rows {
		if strings.HasPrefix(row[0], rowPrefix) {
			return row[col]
		}
	}
	b.Fatalf("no row %q in %q", rowPrefix, tables[0].Title)
	return ""
}

var benchDurRe = regexp.MustCompile(`([0-9.]+)(ns|µs|ms|s|min)`)

func asMillis(b *testing.B, cell string) float64 {
	b.Helper()
	m := benchDurRe.FindStringSubmatch(cell)
	if m == nil {
		b.Fatalf("cannot parse %q", cell)
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	switch m[2] {
	case "ns":
		return v / 1e6
	case "µs":
		return v / 1000
	case "ms":
		return v
	case "s":
		return v * 1000
	default:
		return v * 60 * 1000
	}
}

func asDollars(b *testing.B, cell string) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(cell, "$"), "/hr")
	v, err := strconv.ParseFloat(strings.ReplaceAll(s, ",", ""), 64)
	if err != nil {
		b.Fatalf("cannot parse %q", cell)
	}
	return v
}

// BenchmarkTable1Latencies regenerates Table 1 (1KB communication costs).
func BenchmarkTable1Latencies(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunTable1(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "Latency", 1)), "invoke-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Latency", 2)), "lambda-s3-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Latency", 3)), "lambda-ddb-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Latency", 6))*1000, "zmq-us")
}

// BenchmarkFigure1Trends regenerates Figure 1 (trends chart).
func BenchmarkFigure1Trends(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFigure1(core.Options{Seed: 1})
	}
	if len(tables[0].Rows) != 2 {
		b.Fatal("figure 1 incomplete")
	}
}

// BenchmarkTrainingCaseStudy regenerates the §3.1 training table
// (paper: 465min/$0.29 on Lambda vs 21.7min/$0.04 on EC2 — 21x / 7.3x).
func BenchmarkTrainingCaseStudy(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunTraining(core.Options{Seed: 1})
	}
	lambdaMin := asMillis(b, headline(b, tables, "Lambda", 5)) / 60000
	ec2Min := asMillis(b, headline(b, tables, "EC2 m4.large", 5)) / 60000
	b.ReportMetric(lambdaMin, "lambda-min")
	b.ReportMetric(ec2Min, "ec2-min")
	b.ReportMetric(lambdaMin/ec2Min, "slowdown-x")
}

// BenchmarkServingLatency regenerates the §3.1 serving latencies
// (paper: 559ms / 447ms / 13ms / 2.8ms).
func BenchmarkServingLatency(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunServing(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "Lambda, model fetched", 1)), "lambda-fetch-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Lambda, compiled-in", 1)), "lambda-opt-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "EC2 m5.large + SQS", 1)), "ec2-sqs-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "EC2 m5.large + ZeroMQ", 1)), "ec2-zmq-ms")
}

// BenchmarkServingCost regenerates the 1M msg/s cost analysis
// (paper: $1,584/hr SQS vs $27.84/hr EC2 — 57x).
func BenchmarkServingCost(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunServingCost(core.Options{Seed: 1})
	}
	sqs := asDollars(b, headline(b, tables, "SQS requests alone", 2))
	ec2 := asDollars(b, headline(b, tables, "EC2 m5.large fleet", 2))
	b.ReportMetric(sqs, "sqs-usd-hr")
	b.ReportMetric(ec2, "ec2-usd-hr")
	b.ReportMetric(sqs/ec2, "ratio-x")
}

// BenchmarkElectionBlackboard regenerates the §3.1 election case study
// (paper: 16.7s rounds, 1.9% of lifetime, >= $450/hr at 1,000 nodes).
func BenchmarkElectionBlackboard(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunElection(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "Election round", 1))/1000, "round-s")
	b.ReportMetric(asDollars(b, headline(b, tables, "Storage cost, 1,000 nodes", 1)), "usd-hr-1000n")
}

// BenchmarkBandwidthSweep regenerates the per-function bandwidth collapse
// (paper: 538 Mbps solo, 28.7 Mbps at 20 functions).
func BenchmarkBandwidthSweep(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunBandwidth(core.Options{Seed: 1})
	}
	solo, _ := strconv.ParseFloat(strings.Fields(headline(b, tables, "1", 1))[0], 64)
	packed, _ := strconv.ParseFloat(strings.Fields(headline(b, tables, "20", 1))[0], 64)
	b.ReportMetric(solo, "solo-mbps")
	b.ReportMetric(packed, "packed20-mbps")
}

// BenchmarkWorkflowSignup regenerates the §2 composition-overhead table.
func BenchmarkWorkflowSignup(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunWorkflow(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "FaaS pipeline", 1)), "pipeline-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Single EC2 process", 1)), "monolith-ms")
}

// BenchmarkAblationFirecracker regenerates footnote 5's what-if.
func BenchmarkAblationFirecracker(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFirecracker(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "Cold invoke", 1)), "cold-classic-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "Cold invoke", 2)), "cold-firecracker-ms")
}

// BenchmarkAblationFastNIC regenerates footnote 4's what-if.
func BenchmarkAblationFastNIC(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFastNIC(core.Options{Seed: 1})
	}
	v, _ := strconv.ParseFloat(strings.Fields(headline(b, tables, "64", 1))[0], 64)
	b.ReportMetric(v/8, "mbytes-per-core")
}

// BenchmarkFuturePlatform regenerates the §4 prototype comparison.
func BenchmarkFuturePlatform(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFuture(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "Model training", 2))/60000, "training-min")
	b.ReportMetric(asMillis(b, headline(b, tables, "Prediction serving", 2)), "serving-ms")
}

// BenchmarkElectionSweep regenerates the polling-rate sensitivity table.
func BenchmarkElectionSweep(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunElectionSweep(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "1 Hz", 1))/1000, "round-1hz-s")
	b.ReportMetric(asMillis(b, headline(b, tables, "8 Hz", 1))/1000, "round-8hz-s")
}

// BenchmarkAutoscaleUnderLoad regenerates the §1.2 "step forward" table.
func BenchmarkAutoscaleUnderLoad(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunAutoscale(core.Options{Seed: 1})
	}
	b.ReportMetric(asMillis(b, headline(b, tables, "50 req/s", 2)), "lambda-p99-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "50 req/s", 4))/1000, "ec2-p99-s")
}

// BenchmarkRegionScaleKV runs the region-scale sharding scenario (no paper
// counterpart; the ROADMAP's scaling direction): a 4,000 req/s open-loop
// load against one logical KV table at growing shard counts, reporting
// aggregate throughput at 1 and 4 shards and the measured speedup.
func BenchmarkRegionScaleKV(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunRegionScale(core.Options{Seed: 1})
	}
	rps := func(shardRow string) float64 {
		v, err := strconv.ParseFloat(headline(b, tables, shardRow, 1), 64)
		if err != nil {
			b.Fatalf("cannot parse throughput for %s shards", shardRow)
		}
		return v
	}
	shard1, shard4 := rps("1"), rps("4")
	b.ReportMetric(shard1, "shard1-rps")
	b.ReportMetric(shard4, "shard4-rps")
	b.ReportMetric(shard4/shard1, "speedup4-x")
	b.ReportMetric(asMillis(b, headline(b, tables, "4", 4)), "shard4-p99-ms")
}

// BenchmarkFaaSScale runs the FaaS serving-tier scaling scenario (no paper
// counterpart; the ROADMAP's scaling direction): flash-crowd load through
// SQS -> Lambda -> sharded kvstore at growing provisioned concurrency,
// reporting the cold-start fraction and tail latency at the sweep's ends
// plus the autoscaled point's hourly cost.
func BenchmarkFaaSScale(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFaaSScale(core.Options{Seed: 1})
	}
	coldPct := func(row string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(headline(b, tables, row, 4), "%"), 64)
		if err != nil {
			b.Fatalf("cannot parse cold fraction for row %s", row)
		}
		return v
	}
	b.ReportMetric(coldPct("0"), "cold0-pct")
	b.ReportMetric(coldPct("32"), "cold32-pct")
	b.ReportMetric(asMillis(b, headline(b, tables, "0", 3)), "p99-prov0-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "32", 3)), "p99-prov32-ms")
	b.ReportMetric(asDollars(b, headline(b, tables, "auto", 6)), "auto-usd-hr")
}

// BenchmarkMillionUserKV runs the million-user scenario (the ROADMAP's
// top open item): 10⁶ simulated clients at 100k req/s aggregate through
// the aggregated load population, sweeping 16/32/64 shards, with
// latencies held in fixed-memory sketches. Reported: completed throughput
// at the sweep's ends, the 64-shard sketched tails, the hourly bill, and
// the process's peak heap — the number the fixed-memory refactor exists
// to keep flat.
func BenchmarkMillionUserKV(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunMillionUser(core.Options{Seed: 1})
	}
	rps := func(shardRow string) float64 {
		v, err := strconv.ParseFloat(headline(b, tables, shardRow, 1), 64)
		if err != nil {
			b.Fatalf("cannot parse throughput for %s shards", shardRow)
		}
		return v
	}
	b.ReportMetric(rps("16"), "shard16-rps")
	b.ReportMetric(rps("64"), "shard64-rps")
	b.ReportMetric(asMillis(b, headline(b, tables, "64", 2)), "shard64-p50-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "64", 3)), "shard64-p99-ms")
	b.ReportMetric(asMillis(b, headline(b, tables, "64", 4)), "shard64-p999-ms")
	b.ReportMetric(asDollars(b, headline(b, tables, "64", 6)), "usd-hr")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys)/(1<<20), "peak-heap-mb")
}

// BenchmarkStateCacheScale runs the function-colocated state-cache
// scenario (the paper's §4 fluid-state direction): identical stateful
// workloads against the DynamoDB-class store and against VM-colocated CRDT
// replicas with gossip anti-entropy, sweeping replica count and gossip
// interval. Reported: read tails on both sides, the measured staleness
// window, and the cached/uncached p99 ratio.
func BenchmarkStateCacheScale(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunStateCache(core.Options{Seed: 1})
	}
	uncachedP99 := asMillis(b, headline(b, tables, "uncached", 5))
	cachedRow := func(col int) string {
		for _, row := range tables[0].Rows {
			if row[0] == "cached" && row[1] == "4" && row[2] == "200.0ms" {
				return row[col]
			}
		}
		b.Fatal("no cached 4-replica/200ms row")
		return ""
	}
	cachedP99 := asMillis(b, cachedRow(5))
	b.ReportMetric(uncachedP99, "uncached-p99-ms")
	b.ReportMetric(cachedP99*1e6, "cached-p99-ns")
	b.ReportMetric(uncachedP99/cachedP99, "p99-ratio-x")
	b.ReportMetric(asMillis(b, cachedRow(6)), "stale-p99-ms")
}

// sanity: experiments must be deterministic — identical output across runs
// with the same seed. Guarded here (not in internal/core) so the bench
// harness itself verifies reproducibility.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"table1", "servingcost", "bandwidth", "regionscale", "faasscale"} {
		e, ok := core.ExperimentByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		a := render(e.Run(core.Options{Seed: 7}))
		b := render(e.Run(core.Options{Seed: 7}))
		if a != b {
			t.Errorf("experiment %s is nondeterministic", id)
		}
	}
}

func render(tables []*core.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.Render())
	}
	return sb.String()
}
