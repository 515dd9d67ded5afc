package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestRunReportsPanics: a failing experiment comes back from run as an
// error naming the experiment and carrying the panic's own context — the
// simulated process's name, or the sweep point's index — while a healthy
// one passes its tables through.
func TestRunReportsPanics(t *testing.T) {
	ok := &core.Table{Title: "ok"}
	cases := []struct {
		name string
		run  func(core.Options) []*core.Table
		want string // "" = no error
	}{
		{"healthy", func(core.Options) []*core.Table { return []*core.Table{ok} }, ""},
		{"proc", func(core.Options) []*core.Table {
			k := sim.NewKernel()
			defer k.Close()
			k.Spawn("probe", func(*sim.Proc) { panic("store unreachable") })
			k.Run()
			return nil
		}, `fake: sim: process "probe" panicked: store unreachable`},
		{"sweep point", func(o core.Options) []*core.Table {
			sweep.Points(o.Workers, 3, func(i int) int {
				if i == 1 {
					panic("bad point")
				}
				return i
			})
			return nil
		}, "fake: sweep: point 1 panicked: bad point"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := core.Experiment{ID: "fake", Title: "fake", Run: tc.run}
			tables, err := run(e, core.Options{Seed: 1, Workers: 2})
			switch {
			case tc.want == "" && (err != nil || len(tables) != 1 || tables[0] != ok):
				t.Fatalf("run = %v, %v; want the experiment's one table", tables, err)
			case tc.want != "" && (err == nil || err.Error() != tc.want || tables != nil):
				t.Fatalf("run = %v, %v; want no tables and error %q", tables, err, tc.want)
			}
		})
	}
}
