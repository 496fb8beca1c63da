package node

import (
	"testing"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// copyingFabric is a fabric.Copying stub: Send copies the message's tuples
// into got, as the TCP fabric encodes or copies them, and keeps nothing of
// the sender's.
type copyingFabric struct {
	got   []tuple.Tuple
	sends int
}

func (f *copyingFabric) Register(string, fabric.Handler) {}
func (f *copyingFabric) SetDown(string, bool)            {}
func (f *copyingFabric) SendCopiesTuples()               {}
func (f *copyingFabric) Send(_, _ string, msg any) {
	f.got = append(f.got[:0], msg.(DataMsg).Tuples...)
	f.sends++
}

// keepingFabric is the same stub without the capability: to the buffer it is
// a fabric that may keep what it is sent.
type keepingFabric struct{ f *copyingFabric }

func (k keepingFabric) Register(id string, h fabric.Handler) { k.f.Register(id, h) }
func (k keepingFabric) SetDown(id string, down bool)         { k.f.SetDown(id, down) }
func (k keepingFabric) Send(from, to string, msg any)        { k.f.Send(from, to, msg) }

// flushAllocs is the allocations of one 64-tuple PublishBatch plus its flush
// to one subscriber on net, in steady state, after checking the subscriber
// got the batch.
func flushAllocs(t *testing.T, net fabric.Fabric, f *copyingFabric) float64 {
	t.Helper()
	sim := runtime.NewVirtual()
	ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, []string{"d1"})
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
	if len(f.got) != len(ts) || f.got[0].ID != next-64 {
		t.Fatalf("subscriber got %d tuples starting at %v, want 64 from %d", len(f.got), f.got, next-64)
	}
	return testing.AllocsPerRun(200, op)
}

// TestOutputBufferReusesFlushArrayOnCopyingFabric: on a fabric that keeps no
// arrays, a steady-state flush allocates only the boxed DataMsg it sends,
// because the next instant refills the last flush's array; on a fabric
// without the capability every flush also allocates a fresh array.
func TestOutputBufferReusesFlushArrayOnCopyingFabric(t *testing.T) {
	f := &copyingFabric{}
	reused := flushAllocs(t, f, f)
	k := &copyingFabric{}
	fresh := flushAllocs(t, keepingFabric{k}, k)
	t.Logf("allocs per flush: %.2f on a copying fabric, %.2f otherwise", reused, fresh)
	if reused != 1 {
		t.Errorf("a flush on a copying fabric allocates %.2f times, want 1 (the boxed DataMsg)", reused)
	}
	if fresh != reused+1 {
		t.Errorf("a flush on a keeping fabric allocates %.2f times, want %.0f (a fresh array too)", fresh, reused+1)
	}
}

// TestOutputBufferDropsOversizedFlushArray: a flush above tuple.LoanMaxCap
// (a replay-sized instant) is not kept for the next one, on any fabric; one
// at the cap is.
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
		if kept := ob.pending != nil; kept != tc.kept {
			t.Errorf("flush of %d tuples: array kept %v, want %v", tc.n, kept, tc.kept)
		}
	}
}

// TestOutputBufferFreshArraysOnNetsim: netsim delivers the sender's array, so
// two successive flushes deliver distinct arrays and the first keeps its
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
// subscription costs (its record) and every send (the boxed DataMsg).
func TestSubscribeReplayAllocatesOnce(t *testing.T) {
	sim := runtime.NewVirtual()
	f := &copyingFabric{}
	ob := NewOutputBuffer(sim, f, "up", "s", BufferUnbounded, 0, nil)
	for i := uint64(1); i <= 100; i++ {
		ob.Publish(ins(i, int64(i)))
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
