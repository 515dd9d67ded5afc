package main

// layerUnits names every per-layer counter a traced run prints, with its
// unit.
var layerUnits = map[string]string{
	"sim.live_procs_peak":          "count",
	"netsim.inflight_peak":         "count",
	"service.requests":             "count",
	"service.busy_s":               "s",
	"service.queue_depth_peak":     "count",
	"service.shed":                 "count",
	"kvstore.get.virt_p99_ms":      "ms",
	"kvstore.put.virt_p99_ms":      "ms",
	"kvstore.cond_fail":            "count",
	"kvstore.hot_share":            "ratio",
	"statecache.gossip_rounds":     "count",
	"statecache.aborted_rounds":    "count",
	"statecache.gossip_mb":         "MB",
	"statecache.payload_frac":      "ratio",
	"statecache.flush_writes":      "count",
	"statecache.stale_p99_ms":      "ms",
	"faas.invocations":             "count",
	"faas.cold_frac":               "ratio",
	"faas.peak_concurrency":        "count",
	"queue.receives":               "count",
	"queue.empty_receive_frac":     "ratio",
	"queue.dead_lettered":          "count",
	"election.records_per_observe": "count",
	"election.round_s":             "s",
}
