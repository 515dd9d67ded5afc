package core

// One benchmark per table and figure in the paper. Each benchmark runs the
// corresponding experiment end to end on the simulated cloud and reports
// the headline quantity as a custom metric, so `go test -bench=.` doubles
// as the reproduction harness. Results are deterministic per seed; the
// ns/op column measures simulator wall time, the custom metrics carry the
// paper-comparable numbers, read from the experiments' typed results.

import (
	"runtime"
	"testing"
	"time"
)

// millis converts a duration to float milliseconds for ReportMetric.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runN runs an experiment b.N times at seed 1 and returns the last result.
func runN[T any](b *testing.B, run func(Options) T) T {
	var r T
	for i := 0; i < b.N; i++ {
		r = run(Options{Seed: 1})
	}
	return r
}

// BenchmarkTable1Latencies regenerates Table 1 (1KB communication costs).
func BenchmarkTable1Latencies(b *testing.B) {
	r := runN(b, runTable1)
	b.ReportMetric(millis(r.invoke), "invoke-ms")
	b.ReportMetric(millis(r.lambdaS3), "lambda-s3-ms")
	b.ReportMetric(millis(r.lambdaDDB), "lambda-ddb-ms")
	b.ReportMetric(float64(r.zmq)/float64(time.Microsecond), "zmq-us")
}

// BenchmarkFigure1Trends regenerates Figure 1 (trends chart).
func BenchmarkFigure1Trends(b *testing.B) {
	tables := runN(b, RunFigure1)
	if len(tables[0].Rows) != 2 {
		b.Fatal("figure 1 incomplete")
	}
}

// BenchmarkTrainingCaseStudy regenerates the §3.1 training table
// (paper: 465min/$0.29 on Lambda vs 21.7min/$0.04 on EC2 — 21x / 7.3x).
func BenchmarkTrainingCaseStudy(b *testing.B) {
	lambda, ec2 := runN(b, runLambdaTraining), runN(b, runEC2Training)
	b.ReportMetric(lambda.total.Minutes(), "lambda-min")
	b.ReportMetric(ec2.total.Minutes(), "ec2-min")
	b.ReportMetric(lambda.total.Seconds()/ec2.total.Seconds(), "slowdown-x")
}

// BenchmarkServingLatency regenerates the §3.1 serving latencies
// (paper: 559ms / 447ms / 13ms / 2.8ms).
func BenchmarkServingLatency(b *testing.B) {
	r := runN(b, runServing)
	b.ReportMetric(millis(r.lambdaFetch), "lambda-fetch-ms")
	b.ReportMetric(millis(r.lambdaOpt), "lambda-opt-ms")
	b.ReportMetric(millis(r.ec2SQS), "ec2-sqs-ms")
	b.ReportMetric(millis(r.ec2ZMQ), "ec2-zmq-ms")
}

// BenchmarkServingCost regenerates the 1M msg/s cost analysis
// (paper: $1,584/hr SQS vs $27.84/hr EC2 — 57x).
func BenchmarkServingCost(b *testing.B) {
	r := runN(b, runServingCost)
	b.ReportMetric(r.sqsHourly, "sqs-usd-hr")
	b.ReportMetric(r.ec2Hourly, "ec2-usd-hr")
	b.ReportMetric(r.sqsHourly/r.ec2Hourly, "ratio-x")
}

// BenchmarkElectionBlackboard regenerates the §3.1 election case study
// (paper: 16.7s rounds, 1.9% of lifetime, >= $450/hr at 1,000 nodes).
func BenchmarkElectionBlackboard(b *testing.B) {
	r := runN(b, runElection)
	b.ReportMetric(r.round.Seconds(), "round-s")
	b.ReportMetric(r.hourly1000, "usd-hr-1000n")
}

// BenchmarkBandwidthSweep regenerates the per-function bandwidth collapse
// (paper: 538 Mbps solo, 28.7 Mbps at 20 functions).
func BenchmarkBandwidthSweep(b *testing.B) {
	r := runN(b, runBandwidth)
	b.ReportMetric(r[0].mbps, "solo-mbps")
	b.ReportMetric(r[len(r)-1].mbps, "packed20-mbps")
}

// BenchmarkWorkflowSignup regenerates the §2 composition-overhead table.
func BenchmarkWorkflowSignup(b *testing.B) {
	r := runN(b, runWorkflow)
	b.ReportMetric(millis(r.pipeline), "pipeline-ms")
	b.ReportMetric(millis(r.monolith), "monolith-ms")
}

// BenchmarkAblationFirecracker regenerates footnote 5's what-if.
func BenchmarkAblationFirecracker(b *testing.B) {
	r := runN(b, runFirecracker)
	b.ReportMetric(millis(r.coldClassic), "cold-classic-ms")
	b.ReportMetric(millis(r.coldFire), "cold-firecracker-ms")
}

// BenchmarkAblationFastNIC regenerates footnote 4's what-if.
func BenchmarkAblationFastNIC(b *testing.B) {
	r := runN(b, runFastNIC)
	b.ReportMetric(r[len(r)-1].mbps/8, "mbytes-per-core")
}

// BenchmarkFuturePlatform regenerates the §4 prototype comparison.
func BenchmarkFuturePlatform(b *testing.B) {
	r := runN(b, runFuture)
	b.ReportMetric(r.trainTime.Minutes(), "training-min")
	b.ReportMetric(millis(r.serveBatch), "serving-ms")
}

// BenchmarkElectionSweep regenerates the polling-rate sensitivity table.
func BenchmarkElectionSweep(b *testing.B) {
	rows := runN(b, runElectionSweep)
	b.ReportMetric(rows[0].round.Seconds(), "round-1hz-s")
	b.ReportMetric(rows[len(rows)-1].round.Seconds(), "round-8hz-s")
}

// BenchmarkAutoscaleUnderLoad regenerates the §1.2 "step forward" table.
func BenchmarkAutoscaleUnderLoad(b *testing.B) {
	rows := runN(b, runAutoscale)
	hi := rows[len(rows)-1] // 50 req/s
	b.ReportMetric(millis(hi.lambda.p99), "lambda-p99-ms")
	b.ReportMetric(hi.ec2.p99.Seconds(), "ec2-p99-s")
}

// BenchmarkRegionScaleKV runs the region-scale sharding scenario (no paper
// counterpart; the ROADMAP's scaling direction): a 4,000 req/s open-loop
// load against one logical KV table at growing shard counts, reporting
// aggregate throughput at 1 and 4 shards and the measured speedup.
func BenchmarkRegionScaleKV(b *testing.B) {
	rows := runN(b, regionScaleSweep)
	shard1, shard4 := rows[0], rows[2]
	b.ReportMetric(shard1.throughput, "shard1-rps")
	b.ReportMetric(shard4.throughput, "shard4-rps")
	b.ReportMetric(shard4.throughput/shard1.throughput, "speedup4-x")
	b.ReportMetric(millis(shard4.p99), "shard4-p99-ms")
}

// BenchmarkFaaSScale runs the FaaS serving-tier scaling scenario (no paper
// counterpart; the ROADMAP's scaling direction): flash-crowd load through
// SQS -> Lambda -> sharded kvstore at growing provisioned concurrency,
// reporting the cold-start fraction and tail latency at the sweep's ends
// plus the autoscaled point's hourly cost.
func BenchmarkFaaSScale(b *testing.B) {
	rows := runN(b, faasScaleSweep)
	prov0, prov32, auto := rows[0], rows[2], rows[3]
	b.ReportMetric(prov0.coldFrac*100, "cold0-pct")
	b.ReportMetric(prov32.coldFrac*100, "cold32-pct")
	b.ReportMetric(millis(prov0.p99), "p99-prov0-ms")
	b.ReportMetric(millis(prov32.p99), "p99-prov32-ms")
	b.ReportMetric(auto.costPerHr, "auto-usd-hr")
}

// BenchmarkMillionUserKV runs the million-user scenario (the ROADMAP's
// top open item): 10⁶ simulated clients at 100k req/s aggregate through
// the aggregated load population, sweeping 16/32/64 shards, with
// latencies held in fixed-memory sketches. Reported: completed throughput
// at the sweep's ends, the 64-shard sketched tails, the hourly bill, and
// the process's peak heap — the number the fixed-memory refactor exists
// to keep flat.
func BenchmarkMillionUserKV(b *testing.B) {
	rows := runN(b, millionUserSweep)
	shard16, shard64 := rows[0], rows[2]
	b.ReportMetric(shard16.throughput, "shard16-rps")
	b.ReportMetric(shard64.throughput, "shard64-rps")
	b.ReportMetric(millis(shard64.p50), "shard64-p50-ms")
	b.ReportMetric(millis(shard64.p99), "shard64-p99-ms")
	b.ReportMetric(millis(shard64.p999), "shard64-p999-ms")
	b.ReportMetric(shard64.costPerHr, "usd-hr")
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
	rows := runN(b, stateCacheSweep)
	uncached, cached := rows[0], rows[2] // cached: 4 replicas, 200ms gossip
	b.ReportMetric(millis(uncached.p99), "uncached-p99-ms")
	b.ReportMetric(float64(cached.p99), "cached-p99-ns")
	b.ReportMetric(float64(uncached.p99)/float64(cached.p99), "p99-ratio-x")
	b.ReportMetric(millis(cached.staleP99), "stale-p99-ms")
}
