package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// election-blackboard: bully nodes on a kvstore blackboard with the
// paper's 4 Hz polling. Setup settles the cluster to agreement; the window
// crashes the leader a fixed number of times. Each Observe is a Scan of
// every record plus a JSON decode of each, so the codec dominates; the
// loop is closed (each node waits for its own scan) and does almost no
// fabric work.
const (
	elNodes  = 16
	elRounds = 3
	// elSettle lets heartbeats go steady before each crash; setup settles
	// for elStart so every seed simulates the same span before the window.
	elSettle = 20 * time.Second
	elStart  = 5 * time.Second
	// elRoundLimit bounds a failover; missing it fails the run's checks.
	elRoundLimit = 3 * time.Minute
)

var electionBlackboard = workload{
	name:  "election-blackboard",
	loop:  "closed",
	load:  "16 nodes polling every 250 ms, 3 leader crashes",
	setup: setupElection,
}

type electionRun struct {
	env
	rounds    int
	nodes     []*election.Node
	inWindow  bool
	windowLen time.Duration

	// Driver-observed calls into the blackboard transport since the
	// kernel started; observes and records cover the window only.
	calls, observes, records, lostClaims int64
	roundTimes                           []time.Duration
	badRounds                            int64
	// writeLat times the record writes (heartbeats and messages), each
	// one kvstore Put of a marshaled record.
	writeLat []time.Duration
}

// observed wraps a node's blackboard transport so the driver can time and
// count every call the protocol makes into it.
type observed struct {
	inner election.Transport
	r     *electionRun
	id    int
	seq   int64
}

func (t *observed) call(p *sim.Proc, op string) (int32, sim.Time) {
	t.seq++
	return t.r.tr.begin(int64(t.id)<<32|t.seq, 0, "election", op, p.Now()), p.Now()
}

func (t *observed) Heartbeat(p *sim.Proc, id int, term int64) {
	sp, start := t.call(p, "Heartbeat")
	t.inner.Heartbeat(p, id, term)
	t.r.wrote(sp, start, p.Now())
}

// wrote closes a record write's span and records its latency.
func (r *electionRun) wrote(sp int32, start, end sim.Time) {
	r.tr.end(sp, end)
	r.calls++
	if r.inWindow {
		r.writeLat = append(r.writeLat, end-start)
	}
}

func (t *observed) LeaderHeartbeat(p *sim.Proc, id int, term int64) {
	sp, _ := t.call(p, "LeaderHeartbeat")
	t.inner.LeaderHeartbeat(p, id, term)
	t.r.tr.end(sp, p.Now())
	t.r.calls++
}

func (t *observed) Send(p *sim.Proc, from, to int, typ election.MsgType, term int64) {
	sp, start := t.call(p, "Send")
	t.inner.Send(p, from, to, typ, term)
	t.r.wrote(sp, start, p.Now())
}

func (t *observed) Claim(p *sim.Proc, id int, term int64) bool {
	sp, _ := t.call(p, "Claim")
	won := t.inner.Claim(p, id, term)
	t.r.tr.end(sp, p.Now())
	t.r.calls++
	if !won && t.r.inWindow {
		t.r.lostClaims++
	}
	return won
}

// Observe is the workload's op: one board scan plus one coordinator read.
func (t *observed) Observe(p *sim.Proc, id int) election.View {
	sp, start := t.call(p, "Observe")
	v := t.inner.Observe(p, id)
	t.r.tr.end(sp, p.Now())
	t.r.calls += 2 // the board Scan and the coordinator Get
	if t.r.inWindow {
		t.r.observes++
		t.r.records += int64(len(v.Members))
		t.r.o.done(p.Now() - start)
	}
	return v
}

func setupElection(seed uint64, scale float64, tr *tracer) instance {
	r := &electionRun{
		env:    newEnv(seed, core.DefaultConfig(), tr, elNodes*4*60*elRounds),
		rounds: max(1, int(float64(elRounds)*scale+0.5)),
	}
	params := election.PaperParams()
	bb := election.NewBlackboard(r.c.DDB, params)
	for id := 1; id <= elNodes; id++ {
		host := r.c.Net.NewNode(fmt.Sprintf("member-%04d", id), 1, netsim.Mbps(538))
		t := &observed{inner: bb.ForNode(id, host), r: r, id: id}
		n := election.NewNode(id, t, params)
		n.Start(r.c.K)
		r.nodes = append(r.nodes, n)
	}
	r.runUntil(sim.Time(elStart))
	if r.agreed() != elNodes {
		panic(fmt.Sprintf("election: no agreement on node %d after %v", elNodes, elStart))
	}
	r.inWindow = true
	r.startWindow()
	return r
}

// agreed returns the leader every running node agrees on, or -1.
func (r *electionRun) agreed() int {
	leader := -1
	for _, n := range r.nodes {
		if n.Stopped() {
			continue
		}
		switch {
		case n.Leader() < 0:
			return -1
		case leader == -1:
			leader = n.Leader()
		case n.Leader() != leader:
			return -1
		}
	}
	return leader
}

// window crashes the sitting leader once per round; the deposed leader
// stays down, so bully order walks down the id space.
func (r *electionRun) window() {
	k := r.c.K
	start := k.Now()
	for i := 0; i < r.rounds; i++ {
		r.runUntil(k.Now() + sim.Time(elSettle))
		leader := r.agreed()
		r.nodes[leader-1].Stop()
		crash := k.Now()
		ok := r.runWhile(func() bool { a := r.agreed(); return a <= 0 || a == leader },
			crash+sim.Time(elRoundLimit))
		// Bully's outcome: the highest running id leads.
		if !ok || r.agreed() != leader-1 {
			r.badRounds++
		}
		r.roundTimes = append(r.roundTimes, time.Duration(k.Now()-crash))
	}
	r.inWindow = false
	r.windowLen = time.Duration(k.Now() - start)
}

func (r *electionRun) finish() *outcome {
	o := r.o
	o.attempted = r.observes
	r.serviceStats()
	o.expect("every round ends with the highest live id agreed as leader", r.badRounds, 0)
	var total time.Duration
	for _, d := range r.roundTimes {
		total += d
		o.digest.i64(int64(d))
	}
	o.layer["election.records_per_observe"] = ratio(float64(r.records), float64(r.observes))
	o.layer["election.round_s"] = total.Seconds() / float64(len(r.roundTimes))
	o.layer["kvstore.cond_fail"] = float64(r.lostClaims)
	o.layer["kvstore.put.virt_p99_ms"] = ms(pct(r.writeLat, 99))
	r.meter(r.windowLen)

	// Stop every node and let calls in flight finish, so the driver's
	// count and the table's are taken at the same instant.
	for _, n := range r.nodes {
		n.Stop()
	}
	idle := r.runWhile(func() bool { return r.c.K.LiveProcs() > 0 }, r.c.K.Now()+sim.Time(time.Minute))
	o.expect("nodes stopped", b2i(idle), 1)
	var reqs int64
	for _, st := range r.kv.ShardStats() {
		reqs += st.Requests
	}
	// Observe is one Scan (one round trip on the unsharded table) plus one
	// consistent Get; every other transport call is one write.
	o.expect("kvstore round trips = driver calls", reqs, r.calls)
	return o
}
