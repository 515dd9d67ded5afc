package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPointsOrderedResults: results land in point-index order at every
// worker count, regardless of completion order.
func TestPointsOrderedResults(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		got := Points(w, 17, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("w=%d: point %d = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestPointsWorkerCountInvariance: a pure point function yields identical
// result slices at every worker count — the property the experiment
// goldens lean on.
func TestPointsWorkerCountInvariance(t *testing.T) {
	run := func(w int) []string {
		return Points(w, 23, func(i int) string {
			return fmt.Sprintf("point-%02d:%d", i, i*2654435761)
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 7, 23, 100} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d diverged at point %d: %q != %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestPointsBoundedConcurrency: no more than `workers` points are in
// flight at once.
func TestPointsBoundedConcurrency(t *testing.T) {
	const workers = 4
	var live, peak atomic.Int64
	var mu sync.Mutex
	Points(workers, 64, func(i int) int {
		n := live.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer live.Add(-1)
		runtime.Gosched()
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight points = %d, want <= %d", p, workers)
	}
}

// TestPointsPanicContext: a panicking point surfaces as a *PointError on
// the caller's goroutine carrying the point index, the original value,
// and a worker stack.
func TestPointsPanicContext(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PointError)
				if !ok {
					t.Fatalf("w=%d: recovered %T (%v), want *PointError", w, r, r)
				}
				if pe.Point != 5 {
					t.Errorf("w=%d: point = %d, want 5", w, pe.Point)
				}
				if !errors.Is(pe, boom) {
					t.Errorf("w=%d: Unwrap lost the original error: %v", w, pe.Value)
				}
				if !strings.Contains(pe.Stack, "sweep") {
					t.Errorf("w=%d: stack not captured: %q", w, pe.Stack)
				}
				if !strings.Contains(pe.Error(), "point 5") {
					t.Errorf("w=%d: Error() = %q, want point context", w, pe.Error())
				}
			}()
			Points(w, 8, func(i int) int {
				if i == 5 {
					panic(boom)
				}
				return i
			})
		}()
	}
}

// TestPointsSequentialStopsAtPanic: at W=1 a panic halts the sweep, so
// later points never run — matching the pre-engine sequential loops.
func TestPointsSequentialStopsAtPanic(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		Points(1, 8, func(i int) int {
			ran.Add(1)
			if i == 2 {
				panic("stop")
			}
			return i
		})
	}()
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran %d points, want 3 (0,1,2)", n)
	}
}

// TestMapPassesItemsAndIndices: Map hands each point its item and index.
func TestMapPassesItemsAndIndices(t *testing.T) {
	items := []string{"a", "b", "c"}
	got := Map(0, items, func(i int, s string) string { return fmt.Sprintf("%d%s", i, s) })
	want := []string{"0a", "1b", "2c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Map[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPointsEdgeCases: empty sweeps and over-provisioned worker counts.
func TestPointsEdgeCases(t *testing.T) {
	if got := Points(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("empty sweep returned %v", got)
	}
	if got := Points(100, 2, func(i int) int { return i + 1 }); got[0] != 1 || got[1] != 2 {
		t.Fatalf("over-provisioned sweep returned %v", got)
	}
	if got := Points(0, 2, func(i int) int { return i }); got[1] != 1 {
		t.Fatalf("w=0 sweep returned %v", got)
	}
}

// TestWorkersOverride: an explicit count takes precedence and 0 falls
// back to the default resolution.
func TestWorkersOverride(t *testing.T) {
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Fatalf("default Workers(0) = %d, want >= 1", w)
	}
}
