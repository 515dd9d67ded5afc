package core

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// phaseNames labels the three measurement phases around a fault window.
var phaseNames = [3]string{"pre", "during", "post"}

// phase is one phase's request measurements.
type phase struct {
	rec    stats.Summary
	served int
	failed int
}

// avail is the served share of the phase's requests, in percent (100 when
// the phase saw none).
func (ph *phase) avail() float64 {
	if total := ph.served + ph.failed; total > 0 {
		return 100 * float64(ph.served) / float64(total)
	}
	return 100
}

// rate is the phase's served requests per second over phaseDur.
func (ph *phase) rate(phaseDur time.Duration) float64 {
	return float64(ph.served) / phaseDur.Seconds()
}

// cells renders the shared row cells: Done req/s, the given latency
// percentiles, and Avail.
func (ph *phase) cells(phaseDur time.Duration, pcts ...float64) []string {
	out := []string{fmt.Sprintf("%.0f", ph.rate(phaseDur))}
	for _, q := range pcts {
		out = append(out, FmtDur(ph.rec.Percentile(q)))
	}
	return append(out, fmt.Sprintf("%.2f%%", ph.avail()))
}

// phases is the pre/during/post harness the fault experiments share: a
// fault covering the middle third of the measurement window, and one
// phase per side of its edges.
type phases struct {
	at, dur time.Duration // the fault window
	p       [3]phase
}

// newPhases builds the harness for a measurement window; each phase's
// summary is named prefix-<phase>.
func (o Options) newPhases(prefix string, window time.Duration) phases {
	ps := phases{at: window / 3, dur: window / 3}
	for i := range ps.p {
		ps.p[i].rec = o.newSummary(prefix + "-" + phaseNames[i])
	}
	return ps
}

// index returns the phase number containing virtual time now.
func (ps *phases) index(now sim.Time) int {
	switch {
	case now < sim.Time(ps.at):
		return 0
	case now < sim.Time(ps.at+ps.dur):
		return 1
	default:
		return 2
	}
}

// of returns the phase containing virtual time now.
func (ps *phases) of(now sim.Time) *phase { return &ps.p[ps.index(now)] }
