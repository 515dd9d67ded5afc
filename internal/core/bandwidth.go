package core

import (
	"fmt"
	"time"

	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// packedBandwidth is one packing level's mean per-function bandwidth.
type packedBandwidth struct {
	functions int
	mbps      float64
}

// packingSweep measures per-function bandwidth at each concurrency level,
// each on its own cloud seeded by (seed, level).
func packingSweep(o Options, cfg Config, levels []int, transferBytes int64) []packedBandwidth {
	out := make([]packedBandwidth, len(levels))
	for i, n := range levels {
		out[i] = packedBandwidth{n, measurePerFunctionMbps(o.Seed+uint64(n), cfg, n, transferBytes)}
	}
	return out
}

// measurePerFunctionMbps invokes n concurrent bulk-transfer functions (all
// packed onto shared VMs by the platform) and returns the mean per-function
// achieved bandwidth in Mbps. Functions rendezvous on a barrier so their
// transfers fully overlap.
func measurePerFunctionMbps(seed uint64, cfg Config, n int, transferBytes int64) float64 {
	c := NewCloudWith(seed, cfg)
	defer c.Close()
	sink := c.Net.NewNode(fmt.Sprintf("iperf-sink-%d", n), ServiceRack, netsim.Gbps(400))
	ready := 0
	barrier := &sim.Latch{}
	var totalMbps float64

	fnName := fmt.Sprintf("pump-%d", n)
	if err := c.Lambda.Register(faas.Function{
		Name: fnName, MemoryMB: 512, Timeout: 15 * time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			p := ctx.Proc()
			ready++
			if ready == n {
				barrier.Release()
			}
			barrier.Wait(p)
			start := p.Now()
			c.Net.Fabric().Transfer(p, transferBytes, ctx.Node().NIC(), sink.NIC())
			secs := time.Duration(p.Now() - start).Seconds()
			totalMbps += float64(transferBytes) * 8 / 1e6 / secs
			return nil, nil
		},
	}); err != nil {
		panic(err)
	}
	drivers := make([]func(*sim.Proc), n)
	for i := range drivers {
		drivers[i] = func(p *sim.Proc) {
			if _, _, err := c.Lambda.Invoke(p, fnName, nil); err != nil {
				panic(err)
			}
		}
	}
	drive(c.K, "bandwidth", sim.Time(2*time.Hour), sim.Time(10*time.Second), drivers...)
	return totalMbps / float64(n)
}

// RunBandwidth regenerates the §3 constraint-(2) observation: a lone
// function sees ~538 Mbps, but because the platform packs one user's
// functions onto shared VMs, per-function bandwidth collapses as
// concurrency grows (the paper quotes 28.7 Mbps average at 20 functions,
// 2.5 orders of magnitude below one SSD).
func RunBandwidth(o Options) []*Table {
	t := &Table{
		Title:  "§3(2): per-function network bandwidth under same-VM packing",
		Header: []string{"Concurrent functions", "Per-function bandwidth", "vs one SSD (2.5GB/s)"},
	}
	for _, r := range runBandwidth(o) {
		mbPerSec := r.mbps / 8
		t.AddRow(fmt.Sprintf("%d", r.functions), fmt.Sprintf("%.1f Mbps", r.mbps),
			FmtRatio(SSDBandwidthMBps/mbPerSec)+" slower")
	}
	t.AddRow("paper: 1", "538 Mbps", "37x slower")
	t.AddRow("paper: 20", "28.7 Mbps", "~700x slower")
	t.AddNote("the collapse is emergent: 20 flows share one 538 Mbps VM NIC under max-min fairness")
	return []*Table{t}
}

func runBandwidth(o Options) []packedBandwidth {
	return packingSweep(o, DefaultConfig(), []int{1, 2, 4, 8, 12, 16, 20}, 32e6)
}

// RunFastNIC regenerates footnote 4's what-if: AWS's announced 100 Gbps
// networking on 64-core hosts. Solo functions look great; under full
// packing each core still gets ~200 MB/s — an order of magnitude below one
// SSD, so the architectural problem stands.
func RunFastNIC(o Options) []*Table {
	t := &Table{
		Title:  "Ablation (footnote 4): 100 Gbps VM NIC, 64-way packing",
		Header: []string{"Concurrent functions", "Per-function bandwidth", "vs one SSD (2.5GB/s)"},
	}
	for _, r := range runFastNIC(o) {
		mbPerSec := r.mbps / 8
		rel := "faster"
		ratio := mbPerSec / SSDBandwidthMBps
		if ratio < 1 {
			rel = "slower"
			ratio = 1 / ratio
		}
		t.AddRow(fmt.Sprintf("%d", r.functions), fmt.Sprintf("%.0f Mbps", r.mbps),
			FmtRatio(ratio)+" "+rel)
	}
	t.AddNote("paper: \"even with 100Gbps/64 cores, under load you get ~200MBps per core,")
	t.AddNote("still an order of magnitude slower than a single SSD\"")
	return []*Table{t}
}

func runFastNIC(o Options) []packedBandwidth {
	cfg := DefaultConfig()
	cfg.Lambda.VMNICBps = netsim.Gbps(100)
	cfg.Lambda.ContainersPerVM = 64
	return packingSweep(o, cfg, []int{1, 16, 64}, 256e6)
}
