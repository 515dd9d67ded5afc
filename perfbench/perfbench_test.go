package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// testScale shrinks every workload's window so each run takes well under
// a second; testSeed is not pinned, so only the conservation checks apply.
const (
	testScale = 0.2
	testSeed  = 7
)

func shortRun(t *testing.T, w *workload, tr *tracer) rep {
	t.Helper()
	r := runRep(w, testSeed, testScale, tr, nil)
	if r.err != nil {
		t.Fatalf("%s: %v", w.name, r.err)
	}
	if r.o.attempted == 0 || len(r.o.lat) == 0 {
		t.Fatalf("%s: no ops ran", w.name)
	}
	return r
}

// TestDigestRepeats runs each workload's short window three ways — plain,
// traced, and on one OS thread — and requires one digest.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := shortRun(t, w, nil)
			if again := shortRun(t, w, nil); again.digest != first.digest {
				t.Errorf("repeat digest %s, first %s", again.digest, first.digest)
			}
			tr := &tracer{}
			if traced := shortRun(t, w, tr); traced.digest != first.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, first.digest)
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for i, s := range tr.spans {
				if s.end < s.start || int(s.parent) > i {
					t.Fatalf("span %d malformed: %+v", i+1, s)
				}
			}
			prev := runtime.GOMAXPROCS(1)
			one := shortRun(t, w, nil)
			runtime.GOMAXPROCS(prev)
			if one.digest != first.digest {
				t.Errorf("GOMAXPROCS=1 digest %s, GOMAXPROCS=%d %s", one.digest, prev, first.digest)
			}
		})
	}
}

// TestVerifyRejects shows the output check catching a wrong pinned digest
// and a broken conservation count.
func TestVerifyRejects(t *testing.T) {
	r := shortRun(t, &kvOpenLoop, nil)
	if err := verify(r.o, r.digest, map[uint64]string{testSeed: r.digest}, testSeed); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	err := verify(r.o, r.digest, map[uint64]string{testSeed: "0000000000000000"}, testSeed)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("wrong digest accepted: %v", err)
	}
	if err := verify(r.o, r.digest, map[uint64]string{testSeed + 1: "0000000000000000"}, testSeed); err != nil {
		t.Errorf("pin for another seed applied: %v", err)
	}
	for i := range r.o.checks {
		c := &r.o.checks[i]
		c.got++
		if err := verify(r.o, r.digest, nil, testSeed); err == nil {
			t.Errorf("broken count %q accepted", c.what)
		}
		c.got--
	}
}

// TestProfileRollup decodes a real CPU profile and checks that the
// buckets account for every sample.
func TestProfileRollup(t *testing.T) {
	p := &profiler{}
	var r rep
	p.start()
	inst := kvOpenLoop.setup(testSeed, 0.1, nil)
	inst.window()
	inst.close()
	p.stop(&r)
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, ro := range []rollup{r.cpu, r.allocProf} {
		var sum int64
		for _, v := range ro.bucket {
			sum += v
		}
		if sum != ro.total {
			t.Errorf("buckets sum to %d, total %d", sum, ro.total)
		}
	}
	if r.allocProf.bucket["kvstore"] <= 0 {
		t.Errorf("no kvstore allocations attributed: %v", r.allocProf.bucket)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack  []string
		bucket string
		json   bool
	}{
		{[]string{"runtime.mallocgc", "repro/internal/crdt.Marshal", "repro/internal/statecache.(*entry).refresh"}, "crdt", false},
		{[]string{"encoding/json.Unmarshal", "repro/internal/election.(*BBTransport).Observe", "main.(*observed).Observe", "repro/internal/sim.(*Proc).loop"}, "election", true},
		{[]string{"main.(*kvRun).request", "repro/internal/sim.(*Proc).loop"}, "driver", false},
		{[]string{"repro/internal/recon.(*Filter).Add"}, "other", false},
		{[]string{"repro/perfbench.(*outcome).done", "repro/internal/sim.(*Proc).loop"}, "driver", false},
		{[]string{"runtime.gcBgMarkWorker"}, "gc", false},
		{[]string{"compress/flate.NewWriter", "runtime/pprof.writeAlloc", "main.allocSnapshot"}, "", false},
	} {
		b, js := bucketOf(c.stack)
		if b != c.bucket || js != c.json {
			t.Errorf("bucketOf(%v) = %s, %v; want %s, %v", c.stack, b, js, c.bucket, c.json)
		}
	}
}

// TestReportMatchesBenchmarkJSON checks the printed metrics against the
// benchmark's declaration: a timed run prints exactly the end-to-end
// metrics and a traced run exactly the per-layer ones, with their units,
// and the CPU buckets cover every sample.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
	same := func(kind string, rp report, want []struct{ Name, Unit string }) {
		if !rp.Correct {
			t.Errorf("%s run incorrect", kind)
		}
		if len(rp.Metrics) != len(want) {
			t.Errorf("%s run printed %d metrics, BENCHMARK.json declares %d", kind, len(rp.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := rp.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s: got %+v (present %v), want unit %s", kind, m.Name, got, ok, m.Unit)
			}
		}
	}
	same("timed", timed(&kvOpenLoop, testSeed, 0.05, 0), decl.EndToEnd)
	rp := traced(&kvOpenLoop, testSeed, 0.05, 0)
	same("traced", rp, decl.PerLayer)
	var sum float64
	for n, m := range rp.Metrics {
		if strings.HasPrefix(n, "cpu.") && n != "cpu.json" && n != "cpu.samples" {
			sum += m.Value
		}
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("cpu buckets sum to %.4f%%", sum)
	}
}

// TestPanicFailsRepetition shows a simulation panic reported as a failed
// repetition rather than a crashed process.
func TestPanicFailsRepetition(t *testing.T) {
	w := &workload{name: "panics", setup: func(uint64, float64, *tracer) instance { panic("no cloud") }}
	r := runRep(w, 1, 1, nil, nil)
	if r.err == nil || !strings.Contains(r.err.Error(), "no cloud") || r.o.failed != 1 {
		t.Errorf("panicking workload: err %v, outcome %+v", r.err, r.o)
	}
}
