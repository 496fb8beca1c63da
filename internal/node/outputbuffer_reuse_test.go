package node

import (
	"testing"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// copyingFabric is a stub fabric whose Send copies the message's tuples
// into got, as every fabric encodes or copies a lent array, and keeps
// nothing of the sender's.
type copyingFabric struct {
	got   []tuple.Tuple
	given bool // the last message's Given promise
	sends int
}

func (f *copyingFabric) Register(string, fabric.Handler) {}
func (f *copyingFabric) SetDown(string, bool)            {}
func (f *copyingFabric) Send(_, _ string, msg any) {
	m := msg.(DataMsg)
	f.got = append(f.got[:0], m.Tuples...)
	f.given = m.Given
	f.sends++
}

// flushAllocs is the allocations of one 64-tuple PublishBatch plus its flush
// to one subscriber on f, in steady state, after checking the subscriber
// got the batch.
func flushAllocs(t *testing.T, f *copyingFabric) float64 {
	t.Helper()
	sim := runtime.NewVirtual()
	ob := NewOutputBuffer(sim, f, "up", "s", BufferUnbounded, 0, []string{"d1"})
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
	ts := make([]tuple.Tuple, 64)
	next := uint64(1)
	op := func() {
		for i := range ts {
			ts[i] = tuple.Tuple{Type: tuple.Insertion, ID: next, STime: int64(next)}
			next++
		}
		ob.PublishBatch(ts)
		sim.Run()
		ob.Ack("d1", next-1)
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if len(f.got) != len(ts) || f.got[0].ID != next-64 || f.given {
		t.Fatalf("subscriber got %d tuples starting at %v, given %v; want 64 from %d, lent", len(f.got), f.got, f.given, next-64)
	}
	return testing.AllocsPerRun(200, op)
}

// TestOutputBufferReusesFlushArrayOnCopyingFabric: every fabric copies a
// lent array during Send, so a steady-state flush allocates only the boxed
// DataMsg it sends: the next instant refills the last flush's array.
func TestOutputBufferReusesFlushArrayOnCopyingFabric(t *testing.T) {
	if tuple.Poisoning() {
		t.Skip("a loanpoison build never lends a returned segment again, and every ack here empties one")
	}
	if got := flushAllocs(t, &copyingFabric{}); got != 1 {
		t.Errorf("a flush allocates %.2f times, want 1 (the boxed DataMsg)", got)
	}
}

// TestOutputBufferDropsOversizedFlushArray: a flush above tuple.LoanMaxCap
// (a replay-sized instant) is given away, not kept for the next one; one at
// the cap is lent and kept.
func TestOutputBufferDropsOversizedFlushArray(t *testing.T) {
	for _, tc := range []struct {
		n    int
		kept bool
	}{{tuple.LoanMaxCap, true}, {tuple.LoanMaxCap + 1, false}} {
		sim := runtime.NewVirtual()
		f := &copyingFabric{}
		ob := NewOutputBuffer(sim, f, "up", "s", BufferUnbounded, 0, nil)
		ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
		ts := make([]tuple.Tuple, tc.n)
		for i := range ts {
			ts[i] = ins(uint64(i+1), int64(i))
		}
		ob.PublishBatch(ts)
		sim.Run()
		if f.sends != 1 || len(f.got) != tc.n {
			t.Fatalf("%d tuples: %d sends of %d tuples", tc.n, f.sends, len(f.got))
		}
		if kept := ob.pending != nil; kept != tc.kept || f.given == tc.kept {
			t.Errorf("flush of %d tuples: array kept %v and given %v, want kept %v", tc.n, kept, f.given, tc.kept)
		}
	}
}

// TestOutputBufferFreshArraysOnNetsim: netsim gives an endpoint registered
// with a plain Register an array it owns, so two successive flushes of the
// buffer's one reused array deliver distinct arrays and the first keeps its
// tuples after the second (bench's recorder keeps netsim arrays).
func TestOutputBufferFreshArraysOnNetsim(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	var got [][]tuple.Tuple
	net.Register("d1", func(_ string, msg any) { got = append(got, msg.(DataMsg).Tuples) })
	ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
	for i := uint64(1); i <= 2; i++ {
		ob.PublishBatch([]tuple.Tuple{ins(i, int64(i))})
		sim.Run()
	}
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want 2", len(got))
	}
	if &got[0][:1][0] == &got[1][:1][0] {
		t.Fatal("two flushes delivered the same array")
	}
	if got[0][0].ID != 1 || got[1][0].ID != 2 {
		t.Fatalf("delivered %v then %v, want id 1 then 2", got[0], got[1])
	}
}

// TestSubscribeReplayAllocatesOnce: a non-empty replay allocates one array,
// sized for the buffered suffix plus the optional UNDO, beyond what every
// subscription costs (its record) and every send (the boxed DataMsg), and
// gives it away.
func TestSubscribeReplayAllocatesOnce(t *testing.T) {
	sim := runtime.NewVirtual()
	f := &copyingFabric{}
	ob := NewOutputBuffer(sim, f, "up", "s", BufferUnbounded, 0, nil)
	for i := uint64(1); i <= 100; i++ {
		publishOne(ob, ins(i, int64(i)))
	}
	tailOnly := testing.AllocsPerRun(100, func() {
		ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
	})
	for _, seen := range []bool{false, true} {
		msg := SubscribeMsg{Stream: "s", FromID: 40, SeenTentative: seen}
		replay := testing.AllocsPerRun(100, func() { ob.Subscribe("d1", msg) })
		if got := replay - tailOnly - 1; got != 1 {
			t.Errorf("SeenTentative %v: the replay allocates %.2f times beyond the subscription and the boxed DataMsg, want 1", seen, got)
		}
		if !f.given {
			t.Errorf("SeenTentative %v: the replay's array is lent, want it given", seen)
		}
		want := 60
		if seen {
			want++
			if f.got[0].Type != tuple.Undo || f.got[0].ID != 40 {
				t.Errorf("replay starts with %v, want UNDO(40)", f.got[0])
			}
		}
		if len(f.got) != want || f.got[len(f.got)-1].ID != 100 || f.got[len(f.got)-60].ID != 41 {
			t.Errorf("SeenTentative %v: replayed %d tuples, want %d ending with ids 41..100", seen, len(f.got), want)
		}
	}
}
