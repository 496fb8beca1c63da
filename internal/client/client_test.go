package client

import (
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

// fakeUpstream is a minimal endpoint that answers keep-alives as STABLE and
// pushes whatever the test wants to its subscriber.
type fakeUpstream struct {
	sim *runtime.VirtualClock
	net *netsim.Net
	id  string
	sub string
	seq uint64
}

func newFakeUpstream(sim *runtime.VirtualClock, net *netsim.Net, id string) *fakeUpstream {
	f := &fakeUpstream{sim: sim, net: net, id: id}
	net.Register(id, func(from string, msg any) {
		switch msg.(type) {
		case node.SubscribeMsg:
			f.sub = from
			f.seq = 0
		case node.KeepAliveReq:
			net.Send(id, from, node.KeepAliveResp{
				Node:    node.StateStable,
				Streams: map[string]node.StreamState{"out": node.StateStable},
			})
		}
	})
	return f
}

func (f *fakeUpstream) push(ts ...tuple.Tuple) {
	if f.sub != "" {
		f.seq++
		f.net.Send(f.id, f.sub, node.DataMsg{Stream: "out", Seq: f.seq, Tuples: ts})
	}
}

func setup(t *testing.T) (*runtime.VirtualClock, *fakeUpstream, *Client) {
	t.Helper()
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	up := newFakeUpstream(sim, net, "n1")
	c, err := New(sim, net, Config{
		ID:        "client",
		Stream:    "out",
		Upstreams: []string{"n1"},
		Delay:     50 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sim.RunFor(20 * ms)
	if up.sub == "" {
		t.Fatal("client never subscribed")
	}
	return sim, up, c
}

func stable(id uint64, stime int64, v int64) tuple.Tuple {
	return tuple.Tuple{Type: tuple.Insertion, ID: id, STime: stime}.WithData(v)
}

func TestClientDeliversAndMeasuresLatency(t *testing.T) {
	sim, up, c := setup(t)
	up.push(stable(1, sim.Now(), 7), tuple.NewBoundary(sim.Now()+100*ms))
	sim.RunFor(500 * ms)
	st := c.Stats()
	if st.NewTuples != 1 {
		t.Fatalf("NewTuples = %d", st.NewTuples)
	}
	if st.MaxLatency <= 0 || st.MaxLatency > 300*ms {
		t.Fatalf("latency out of range: %d", st.MaxLatency)
	}
	if st.MinLatency > st.MaxLatency {
		t.Fatal("min > max")
	}
	view := c.View()
	if len(view) != 1 || view[0].Field(0) != 7 {
		t.Fatalf("view = %v", view)
	}
}

func TestClientCountsTentativeAndStreaks(t *testing.T) {
	sim, up, c := setup(t)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	// Three tentative tuples, no boundary (diverged upstream).
	up.push(
		tuple.Tuple{Type: tuple.Tentative, ID: 2, STime: sim.Now()}.WithData(2),
		tuple.Tuple{Type: tuple.Tentative, ID: 3, STime: sim.Now()}.WithData(3),
	)
	sim.RunFor(2 * sec)
	st := c.Stats()
	if st.Tentative != 2 {
		t.Fatalf("Tentative = %d", st.Tentative)
	}
	if st.MaxTentativeStreak != 2 {
		t.Fatalf("MaxTentativeStreak = %d", st.MaxTentativeStreak)
	}
}

func TestClientAppliesUndoAndAudits(t *testing.T) {
	sim, up, c := setup(t)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	up.push(tuple.Tuple{Type: tuple.Tentative, ID: 2, STime: sim.Now()}.WithData(99))
	sim.RunFor(1 * sec)
	// Correction: undo back to tuple 1, stable replacement, rec-done,
	// then a boundary so the proxy emits stably.
	n2 := sim.Now()
	up.push(tuple.NewUndo(1), stable(3, n2, 2), tuple.NewRecDone(0), tuple.NewBoundary(n2+100*ms))
	sim.RunFor(2 * sec)
	st := c.Stats()
	if st.Undos == 0 {
		t.Fatalf("undo not delivered to app: %+v", st)
	}
	final := c.StableView()
	if len(final) != 2 || final[0].Field(0) != 1 || final[1].Field(0) != 2 {
		t.Fatalf("stable view = %v", final)
	}
	audit := c.VerifyEventualConsistency([]tuple.Tuple{
		tuple.Tuple{Type: tuple.Insertion, STime: now}.WithData(1),
		tuple.Tuple{Type: tuple.Insertion, STime: n2}.WithData(2),
	})
	if !audit.OK {
		t.Fatalf("audit failed: %s", audit.Reason)
	}
}

func TestClientAuditDetectsDivergence(t *testing.T) {
	sim, up, c := setup(t)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	audit := c.VerifyEventualConsistency([]tuple.Tuple{
		tuple.Tuple{Type: tuple.Insertion, STime: now}.WithData(42),
	})
	if audit.OK {
		t.Fatal("audit must detect value divergence")
	}
}

func TestClientResetLatency(t *testing.T) {
	sim, up, c := setup(t)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	c.ResetLatency()
	if st := c.Stats(); st.NewTuples != 0 || st.MaxLatency != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
	n2 := sim.Now()
	up.push(stable(2, n2, 2), tuple.NewBoundary(n2+100*ms))
	sim.RunFor(1 * sec)
	if st := c.Stats(); st.NewTuples != 1 {
		t.Fatalf("post-reset count: %+v", st)
	}
}

// TestClientTraceRecords: a figure series is recorded through OnDeliver,
// which sees every delivery with its arrival time.
func TestClientTraceRecords(t *testing.T) {
	sim, up, c := setup(t)
	var tr []Delivery
	c.OnDeliver(func(d Delivery) { tr = append(tr, d) })
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	if len(tr) == 0 {
		t.Fatal("trace empty")
	}
	if tr[0].At <= 0 {
		t.Fatal("trace missing timestamps")
	}
}
