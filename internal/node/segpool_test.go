package node

import (
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// segHarness is one node, in → SUnion → SOutput, of infinite capacity,
// whose output buffer slides at 600 tuples, fed unlent DataMsgs from "up"
// by hand; no input stalls, so only the tests' own tuples fail it.
type segHarness struct {
	t   *testing.T
	sim *runtime.VirtualClock
	net *netsim.Net
	n   *Node
	seq uint64
	id  uint64 // the last stable id delivered
}

func newSegHarness(t *testing.T) *segHarness {
	t.Helper()
	h := &segHarness{t: t, sim: runtime.NewVirtual()}
	net := netsim.New(h.sim)
	h.net = net
	net.Register("up", func(string, any) {})
	n, err := New(h.sim, net, passDiagram(t, "in", "out"), Config{
		ID:           "a",
		Upstreams:    map[string][]string{"in": {"up"}},
		BufferMode:   BufferSlide,
		BufferCap:    600,
		StallTimeout: 1000 * sec,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Input("in").SetConnections("up", "", false)
	h.n = n
	return h
}

func (h *segHarness) deliver(ts []tuple.Tuple) {
	h.seq++
	h.n.HandleMessage("up", DataMsg{Stream: "in", Seq: h.seq, Tuples: ts})
}

// stable delivers k stable tuples, 1 ms apart, in batches of 100, each
// batch closed by a boundary.
func (h *segHarness) stable(k int) {
	for k > 0 {
		var ts []tuple.Tuple
		for i := 0; i < min(k, 100); i++ {
			h.id++
			ts = append(ts, ins(h.id, int64(h.id)*ms))
		}
		k -= len(ts)
		h.deliver(append(ts, tuple.NewBoundary(int64(h.id)*ms)))
	}
}

// epoch runs one failure epoch: k tentative tuples, then the upstream's
// correction — an UNDO, the same k stable, a boundary and REC_DONE — which
// heals the input, and the reconciliation replays the arrival log. check
// runs while the log is at its longest, before the REC_DONE.
func (h *segHarness) epoch(k int, check func()) {
	h.t.Helper()
	recs := h.n.Reconciliations
	good := h.id
	tent := make([]tuple.Tuple, k)
	for i := range tent {
		tent[i] = tuple.Tuple{Type: tuple.Tentative, ID: good + uint64(i) + 1, STime: int64(good+uint64(i)+1) * ms}
	}
	h.deliver(tent)
	h.deliver([]tuple.Tuple{tuple.NewUndo(good)})
	h.stable(k)
	check()
	h.deliver([]tuple.Tuple{tuple.NewRecDone(int64(h.id) * ms)})
	h.sim.RunFor(5 * sec)
	if h.n.Reconciliations != recs+1 || h.n.State() != StateStable {
		h.t.Fatalf("the epoch ended %v after %d reconciliations, want STABLE after %d", h.n.State(), h.n.Reconciliations, recs+1)
	}
}

// segments returns the first slot of every segment the node's logs hold,
// and of every segment in its pool.
func (h *segHarness) segments() map[*tuple.Tuple]bool {
	seen := make(map[*tuple.Tuple]bool)
	logs := []*TupleLog{&h.n.Output("out").log}
	for _, im := range h.n.inputs {
		logs = append(logs, &im.log)
	}
	for _, l := range logs {
		if l.pool != &h.n.segs {
			h.t.Fatal("a log of the node lends from a pool of its own")
		}
		for _, r := range l.runs {
			seen[&r.seg[0]] = true
		}
	}
	pooled := make([][]tuple.Tuple, h.n.segs.Kept())
	for i := range pooled {
		pooled[i] = h.n.segs.Lend(obSegSize)[:1]
		seen[&pooled[i][0]] = true
	}
	for i := len(pooled) - 1; i >= 0; i-- {
		h.n.segs.Return(pooled[i])
	}
	return seen
}

// noFresh fails if the node holds a segment outside had.
func (h *segHarness) noFresh(had map[*tuple.Tuple]bool, when string) {
	h.t.Helper()
	for s := range h.segments() {
		if !had[s] {
			h.t.Fatalf("%s: the node took a fresh segment (%d known)", when, len(had))
		}
	}
}

// TestNodeSecondEpochTakesNoFreshSegment: a failure epoch's arrival log
// lends its segments from the node's pool, the replay gives them back once
// dispatched, and the next epoch of the same size refills exactly those.
func TestNodeSecondEpochTakesNoFreshSegment(t *testing.T) {
	if tuple.Poisoning() {
		t.Skip("a loanpoison build never lends a returned segment again")
	}
	h := newSegHarness(t)
	h.stable(300)
	h.sim.RunFor(5 * sec)
	var peak int
	h.epoch(2500, func() { peak = h.n.Input("in").LogLen() })
	if peak < 2*obSegSize {
		t.Fatalf("the arrival log peaked at %d tuples, want at least two segments", peak)
	}
	had := h.segments()
	h.epoch(2500, func() { h.noFresh(had, "the second epoch's peak") })
	h.noFresh(had, "after the second epoch")
	if h.n.Input("in").LogLen() != 0 {
		t.Fatalf("the arrival log holds %d tuples after the epoch", h.n.Input("in").LogLen())
	}
}

// TestRestartedReplicaRefillsItsSegments: a crash-restart returns every
// segment of the dead incarnation's buffer and arrival logs to the node's
// pool, and the rebuilt buffer refills them.
func TestRestartedReplicaRefillsItsSegments(t *testing.T) {
	if tuple.Poisoning() {
		t.Skip("a loanpoison build never lends a returned segment again")
	}
	h := newSegHarness(t)
	h.n.Output("out").cap = 0 // unbounded: the buffer keeps every output
	h.stable(3000)
	h.sim.RunFor(5 * sec)
	if k := h.n.Output("out").Len(); k < 2*obSegSize {
		t.Fatalf("the buffer holds %d tuples, want at least two segments", k)
	}
	had := h.segments()
	h.n.Crash()
	h.n.Restart()
	if k := h.n.Output("out").Len(); k != 0 || len(h.n.Output("out").log.runs) != 0 {
		t.Fatalf("the restarted buffer holds %d tuples", k)
	}
	if got := h.n.segs.Kept(); got != len(had) {
		t.Fatalf("the pool keeps %d segments after the restart, want all %d", got, len(had))
	}
	h.seq, h.id = 0, 0 // the resubscription replays the stream from the start
	h.stable(3000)
	h.sim.RunFor(5 * sec)
	if k := h.n.Output("out").Len(); k < 2*obSegSize {
		t.Fatalf("the rebuilt buffer holds %d tuples, want at least two segments", k)
	}
	h.noFresh(had, "after the rebuild")
}
