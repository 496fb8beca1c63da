package node

import (
	"fmt"
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// loanHarness is one node, in → SUnion → SOutput, processing 100 tuples/s
// (10 ms of service per tuple), fed lent DataMsgs from "up" by hand.
type loanHarness struct {
	sim  *runtime.VirtualClock
	net  *netsim.Net
	n    *Node
	pool tuple.LoanPool
	seq  map[string]uint64
}

func newLoanHarness(t *testing.T) *loanHarness {
	t.Helper()
	h := &loanHarness{sim: runtime.NewVirtual(), seq: map[string]uint64{}}
	net := netsim.New(h.sim)
	h.net = net
	net.Register("up", func(string, any) {})
	n, err := New(h.sim, net, passDiagram(t, "in", "out"), Config{
		ID:        "a",
		Capacity:  100,
		Upstreams: map[string][]string{"in": {"up"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Input("in").SetConnections("up", "", false)
	h.n = n
	return h
}

// deliver hands the node a lent DataMsg from an endpoint, with the next
// sequence number of that connection.
func (h *loanHarness) deliver(from string, ts ...tuple.Tuple) {
	h.seq[from]++
	h.deliverSeq(from, h.seq[from], ts...)
}

func (h *loanHarness) deliverSeq(from string, seq uint64, ts ...tuple.Tuple) {
	h.n.HandleMessage(from, DataMsg{Stream: "in", Seq: seq, Tuples: append(h.pool.Lend(len(ts)), ts...), Pool: &h.pool})
}

// deliverUnlent hands the node a DataMsg that lends nothing, as a given
// array is delivered.
func (h *loanHarness) deliverUnlent(from string, ts ...tuple.Tuple) {
	h.seq[from]++
	h.n.HandleMessage(from, DataMsg{Stream: "in", Seq: h.seq[from], Tuples: ts})
}

func (h *loanHarness) wantReturned(t *testing.T, want uint64, when string) {
	t.Helper()
	if got := h.pool.Returned(); got != want {
		t.Fatalf("%s: %d arrays returned, want %d", when, got, want)
	}
}

// TestNodeReturnsForwardedLoanAfterDispatch: a clean batch the input
// manager forwards unchanged rides into the engine with its loan and comes
// back exactly once, after its dispatch — never while queued or in service.
func TestNodeReturnsForwardedLoanAfterDispatch(t *testing.T) {
	h := newLoanHarness(t)
	var returnedAtOutput []uint64
	h.n.OnDeliver(func(string, tuple.Tuple) { returnedAtOutput = append(returnedAtOutput, h.pool.Returned()) })
	// Service is charged per data tuple: 20 ms, then 10 ms.
	h.deliver("up", ins(1, 10*ms), ins(2, 20*ms), tuple.NewBoundary(100*ms))
	h.deliver("up", ins(3, 110*ms), tuple.NewBoundary(200*ms))
	h.wantReturned(t, 0, "both batches queued or in service")
	h.sim.RunFor(15 * ms)
	h.wantReturned(t, 0, "the first batch in service")
	h.sim.RunFor(10 * ms)
	h.wantReturned(t, 1, "after the first dispatch")
	h.sim.RunFor(10 * ms)
	h.wantReturned(t, 2, "after the second dispatch")
	// Each dispatch emits its batch's bucket and boundary: two tuples and
	// a boundary while the first batch is out, one and a boundary while
	// the second is.
	if fmt.Sprint(returnedAtOutput) != "[0 0 0 1 1]" {
		t.Fatalf("returned counts seen at output %v, want [0 0 0 1 1]: a batch came back before its dispatch", returnedAtOutput)
	}
	h.sim.RunFor(sec)
	h.wantReturned(t, 2, "later")
}

// TestNodeReturnsUnforwardedLoansAtOnce: every batch the input manager
// copies or drops, and every batch a crashed node receives, is back in the
// pool when HandleMessage returns.
func TestNodeReturnsUnforwardedLoansAtOnce(t *testing.T) {
	cases := []struct {
		name string
		run  func(h *loanHarness)
	}{
		{"duplicates copied", func(h *loanHarness) {
			h.deliverUnlent("up", ins(1, 10*ms), ins(2, 20*ms))
			h.deliverSeq("up", 1, ins(1, 10*ms), ins(2, 20*ms), ins(3, 30*ms)) // a replay from the start
		}},
		{"undo copied", func(h *loanHarness) {
			h.deliverUnlent("up", ins(1, 10*ms), tuple.NewTentative(20*ms, 2))
			h.deliver("up", tuple.NewUndo(1), ins(2, 20*ms))
		}},
		{"stale connection", func(h *loanHarness) {
			h.deliver("ghost", ins(1, 10*ms))
		}},
		{"sequence gap", func(h *loanHarness) {
			h.deliverUnlent("up", ins(1, 10*ms))
			h.deliverSeq("up", 3, ins(2, 20*ms))
		}},
		{"correcting connection", func(h *loanHarness) {
			h.n.Input("in").SetConnections("up", "fix", false)
			h.deliver("fix", ins(1, 10*ms))
		}},
		{"unknown stream", func(h *loanHarness) {
			h.n.HandleMessage("up", DataMsg{Stream: "nope", Seq: 1, Tuples: append(h.pool.Lend(1), ins(1, 10*ms)), Pool: &h.pool})
		}},
		{"down node", func(h *loanHarness) {
			h.n.Crash()
			h.deliver("up", ins(1, 10*ms))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newLoanHarness(t)
			c.run(h)
			h.wantReturned(t, 1, "when HandleMessage returned")
			h.sim.RunFor(sec)
			h.wantReturned(t, 1, "a second later")
		})
	}
}

// TestNodeCrashRestartDropsLoans: batches still queued or in service when
// a crashed node restarts are thrown away with the engine's state, and a
// thrown-away array never goes back to its pool.
func TestNodeCrashRestartDropsLoans(t *testing.T) {
	h := newLoanHarness(t)
	h.deliver("up", ins(1, 10*ms), tuple.NewBoundary(100*ms))
	h.deliver("up", ins(2, 110*ms), tuple.NewBoundary(200*ms))
	h.n.Crash()
	h.n.Restart()
	h.sim.RunFor(sec)
	h.wantReturned(t, 0, "after the restart")
	if p := h.n.Engine().Processed; p != 0 {
		t.Fatalf("the restarted engine processed %d tuples of the dropped batches", p)
	}
}
