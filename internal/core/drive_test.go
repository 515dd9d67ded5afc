package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// catch runs fn and returns its panic value rendered as a string, or "".
func catch(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestDriveAllReturn: drive returns once every driver has, stopping the
// clock at the first step boundary after the last return.
func TestDriveAllReturn(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var order []int
	sleeper := func(id int, d time.Duration) func(*sim.Proc) {
		return func(p *sim.Proc) {
			p.Sleep(d)
			order = append(order, id)
		}
	}
	drive(k, "sleepers", sim.Time(time.Hour), sim.Time(time.Second),
		sleeper(0, 2500*time.Millisecond), sleeper(1, 500*time.Millisecond), sleeper(2, 0))
	if fmt.Sprint(order) != "[2 1 0]" {
		t.Errorf("drivers returned in order %v, want [2 1 0]", order)
	}
	if k.Now() != sim.Time(3*time.Second) {
		t.Errorf("kernel stopped at %v, want the 3s step boundary", k.Now())
	}
}

// TestDriveBlockedDriverPanics: a driver that never returns makes drive
// panic with what and the unfinished count once the horizon passes.
func TestDriveBlockedDriverPanics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	never := &sim.Latch{}
	msg := catch(func() {
		drive(k, "stuck probe", sim.Time(time.Minute), sim.Time(10*time.Second),
			func(p *sim.Proc) {}, func(p *sim.Proc) { never.Wait(p) })
	})
	if !strings.Contains(msg, "stuck probe: 1 of 2 drivers did not finish") {
		t.Errorf("panic = %q, want what and the unfinished count", msg)
	}
	if k.Now() != sim.Time(time.Minute) {
		t.Errorf("kernel stopped at %v, want the 1m horizon", k.Now())
	}
}

// TestDriveDriverPanicNamesProc: a driver's own panic surfaces through the
// kernel with the driver's proc name attached.
func TestDriveDriverPanicNamesProc(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	msg := catch(func() {
		drive(k, "probe", sim.Time(time.Minute), sim.Time(time.Second),
			func(p *sim.Proc) {}, func(p *sim.Proc) { panic("boom") })
	})
	if !strings.Contains(msg, `"probe driver 1"`) || !strings.Contains(msg, "boom") {
		t.Errorf("panic = %q, want the proc name %q and the cause", msg, "probe driver 1")
	}
}
