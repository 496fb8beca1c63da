package node

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

func obSetup(mode BufferMode, capTuples int, expected []string) (*runtime.VirtualClock, *netsim.Net, *OutputBuffer, map[string]*[]tuple.Tuple) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	boxes := make(map[string]*[]tuple.Tuple)
	for _, id := range []string{"d1", "d2"} {
		box := &[]tuple.Tuple{}
		boxes[id] = box
		net.Register(id, func(_ string, msg any) {
			dm := msg.(DataMsg)
			*box = append(*box, dm.Tuples...)
		})
	}
	ob := NewOutputBuffer(sim, net, "up", "s", mode, capTuples, expected)
	return sim, net, ob, boxes
}

// after returns a copy of the buffered suffix following the data tuple with
// the given id (everything, if id is 0 or unknown because it was truncated):
// what a Subscribe from that id replays, UNDO aside.
func (ob *OutputBuffer) after(id uint64) []tuple.Tuple {
	start := ob.afterIndex(id)
	out := make([]tuple.Tuple, ob.log.n-start)
	ob.log.copyOut(out, start)
	return out
}

// publishOne hands the buffer one tuple as a one-tuple frame, the way the
// engine publishes a tuple emitted on its own.
func publishOne(ob *OutputBuffer, t tuple.Tuple) bool { return ob.PublishBatch([]tuple.Tuple{t}) }

func ins(id uint64, stime int64) tuple.Tuple {
	return tuple.Tuple{Type: tuple.Insertion, ID: id, STime: stime}.WithData(int64(id))
}

func tent(id uint64, stime int64) tuple.Tuple {
	return tuple.Tuple{Type: tuple.Tentative, ID: id, STime: stime}.WithData(int64(id))
}

func TestOutputBufferForwardsToSubscribers(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	publishOne(ob, ins(1, 10))
	publishOne(ob, ins(2, 20))
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("forwarding wrong: %v", got)
	}
	if len(*boxes["d2"]) != 0 {
		t.Fatal("non-subscriber received data")
	}
}

func TestOutputBufferCoalescesSameInstantEmissions(t *testing.T) {
	sim, net, ob, _ := obSetup(BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	sim.Run()
	before := net.Delivered
	for i := uint64(1); i <= 50; i++ {
		publishOne(ob, ins(i, int64(i)))
	}
	sim.Run()
	if net.Delivered-before != 1 {
		t.Fatalf("want 1 coalesced message, got %d", net.Delivered-before)
	}
}

func TestOutputBufferSubscribeReplaysFromID(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	for i := uint64(1); i <= 5; i++ {
		publishOne(ob, ins(i, int64(i)))
	}
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", FromID: 3})
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 2 || got[0].ID != 4 || got[1].ID != 5 {
		t.Fatalf("replay-from-id wrong: %v", got)
	}
}

func TestOutputBufferSubscribeWithSeenTentativeSendsUndo(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	publishOne(ob, ins(1, 1))
	publishOne(ob, ins(2, 2))
	publishOne(ob, tent(3, 3))
	publishOne(ob, tent(4, 4))
	// Fig. 8: Node 2'' saw tentative after stable tuple 2 → undo + the
	// corrected suffix (here still tentative, but the subscriber knows).
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", FromID: 2, SeenTentative: true})
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 3 {
		t.Fatalf("want undo + 2 tuples, got %v", got)
	}
	if got[0].Type != tuple.Undo || got[0].ID != 2 {
		t.Fatalf("undo wrong: %v", got[0])
	}
}

func TestOutputBufferUndoCompacts(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	publishOne(ob, ins(1, 1))
	publishOne(ob, tent(2, 2))
	publishOne(ob, tent(3, 3))
	if ob.Len() != 3 {
		t.Fatalf("buffer len = %d", ob.Len())
	}
	publishOne(ob, tuple.NewUndo(1))
	if ob.Len() != 1 {
		t.Fatalf("undo must compact the buffer: len = %d", ob.Len())
	}
	publishOne(ob, ins(4, 2)) // correction
	// A late subscriber sees only the corrected stream.
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 4 {
		t.Fatalf("late subscriber must see corrected stream: %v", got)
	}
}

func TestOutputBufferBoundariesBufferedRecDoneNot(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	publishOne(ob, ins(1, 1))
	publishOne(ob, tuple.NewBoundary(100))
	publishOne(ob, tuple.NewRecDone(5))
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 2 || got[1].Type != tuple.Boundary {
		t.Fatalf("boundaries must replay, rec_done must not: %v", got)
	}
}

func TestOutputBufferUnsubscribeStopsFlow(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	publishOne(ob, ins(1, 1))
	sim.Run()
	ob.Unsubscribe("d1")
	publishOne(ob, ins(2, 2))
	sim.Run()
	if len(*boxes["d1"]) != 1 {
		t.Fatal("unsubscribed endpoint still receiving")
	}
}

func TestOutputBufferAckTruncation(t *testing.T) {
	_, _, ob, _ := obSetup(BufferUnbounded, 0, []string{"d1", "d2"})
	for i := uint64(1); i <= 10; i++ {
		publishOne(ob, ins(i, int64(i)))
	}
	ob.Ack("d1", 8)
	if ob.Truncated != 0 {
		t.Fatal("truncation must wait for all expected endpoints")
	}
	ob.Ack("d2", 5)
	// min(8, 5) = 5: tuples 1-5 go.
	if ob.Truncated != 5 {
		t.Fatalf("Truncated = %d, want 5", ob.Truncated)
	}
	if ob.Len() != 5 {
		t.Fatalf("Len = %d, want 5", ob.Len())
	}
	// Replay for a reconnecting endpoint now starts at the cut.
	sim, _, ob2, boxes := obSetup(BufferUnbounded, 0, nil)
	_ = ob2
	_ = sim
	_ = boxes
}

func TestOutputBufferSlideMode(t *testing.T) {
	_, _, ob, _ := obSetup(BufferSlide, 5, nil)
	for i := uint64(1); i <= 8; i++ {
		if !publishOne(ob, ins(i, int64(i))) {
			t.Fatal("slide mode must never block")
		}
	}
	if ob.Len() != 5 {
		t.Fatalf("slide buffer len = %d, want 5", ob.Len())
	}
	if ob.Truncated != 3 {
		t.Fatalf("Truncated = %d, want 3", ob.Truncated)
	}
}

func TestOutputBufferBlockMode(t *testing.T) {
	_, _, ob, _ := obSetup(BufferBlock, 3, []string{"d1"})
	for i := uint64(1); i <= 3; i++ {
		if !publishOne(ob, ins(i, int64(i))) {
			t.Fatal("must not block below capacity")
		}
	}
	if publishOne(ob, ins(4, 4)) {
		t.Fatal("full block-mode buffer must refuse")
	}
	if !ob.Blocked {
		t.Fatal("Blocked flag must be set")
	}
	// Acks free space and lift the back-pressure.
	ob.Ack("d1", 2)
	if ob.Blocked {
		t.Fatal("ack must unblock")
	}
	if !publishOne(ob, ins(4, 4)) {
		t.Fatal("publish must succeed after truncation")
	}
}

func TestOutputBufferReplayAfterTruncationStartsAtCut(t *testing.T) {
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, []string{"d1"})
	for i := uint64(1); i <= 6; i++ {
		publishOne(ob, ins(i, int64(i)))
	}
	ob.Ack("d1", 4)
	// A subscriber asking for data older than the cut gets what's left.
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", FromID: 2})
	sim.Run()
	got := *boxes["d1"]
	if len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("replay after truncation wrong: %v", got)
	}
}

func TestOutputBufferPublishBatchMatchesPublish(t *testing.T) {
	batch := []tuple.Tuple{ins(1, 10), ins(2, 20), tuple.NewBoundary(25), ins(3, 30)}

	run := func(bulk bool) ([]tuple.Tuple, []tuple.Tuple) {
		sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
		ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
		sim.Run()
		if bulk {
			if !ob.PublishBatch(batch) {
				t.Fatal("unbounded PublishBatch must not block")
			}
		} else {
			for _, tp := range batch {
				publishOne(ob, tp)
			}
		}
		sim.Run()
		buffered := ob.after(0)
		return buffered, *boxes["d1"]
	}

	refBuf, refOut := run(false)
	gotBuf, gotOut := run(true)
	for name, pair := range map[string][2][]tuple.Tuple{
		"buffer":     {gotBuf, refBuf},
		"subscriber": {gotOut, refOut},
	} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s length differs: %d vs %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].ID != want[i].ID || got[i].STime != want[i].STime {
				t.Fatalf("%s tuple %d differs: %+v vs %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestOutputBufferPublishBatchFallsBackUnderPressure(t *testing.T) {
	// A run that would cross a blocking buffer's capacity takes the §8.1
	// rule tuple by tuple: it fills the buffer and reports back-pressure.
	sim, _, ob, _ := obSetup(BufferBlock, 2, nil)
	sim.Run()
	if ob.PublishBatch([]tuple.Tuple{ins(1, 10), ins(2, 20), ins(3, 30)}) {
		t.Fatal("over-capacity batch must report back-pressure")
	}
	if ob.Len() != 2 {
		t.Fatalf("blocking buffer overfilled: %d tuples", ob.Len())
	}
	if !ob.Blocked {
		t.Fatal("back-pressure flag not raised")
	}
}

func TestOutputBufferPublishBatchUndoTakesPerTuplePath(t *testing.T) {
	// A batch containing an undo must compact the tentative suffix exactly
	// like the same tuples published as one-tuple frames.
	sim, _, ob, boxes := obSetup(BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	sim.Run()
	ob.PublishBatch([]tuple.Tuple{ins(1, 10), tent(2, 20), tent(3, 30), tuple.NewUndo(1)})
	sim.Run()
	if n := ob.Len(); n != 1 {
		t.Fatalf("undo did not compact the buffer: %d tuples live", n)
	}
	got := *boxes["d1"]
	if len(got) != 4 || got[3].Type != tuple.Undo {
		t.Fatalf("live subscriber must still see the undo: %v", got)
	}
}

func TestOutputBufferFlushArraySizedByItsInstant(t *testing.T) {
	// A long replay flush must not size the message arrays of the
	// one-tuple flushes after it.
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	net.Register("d1", func(string, any) {})
	ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s"})
	replay := make([]tuple.Tuple, 10000)
	for i := range replay {
		replay[i] = ins(uint64(i+1), int64(i+1))
	}
	ob.PublishBatch(replay)
	sim.Run()
	for i := 0; i < 10000; i++ {
		publishOne(ob, ins(uint64(10001+i), 20000))
	}
	sim.Run()

	const rounds = 200
	next := uint64(20001)
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		publishOne(ob, tuple.Tuple{Type: tuple.Insertion, ID: next, STime: int64(next)})
		next++
		sim.Run()
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 1024 {
		t.Fatalf("a one-tuple frame + flush allocates %d B after a 10 000-tuple flush, want < 1 KB", per)
	}
}

// TestSubscribeMidInstantDeliversOnce: a subscriber joining while a flush is
// pending receives the tuples published before it joined once, in its
// seq-1 replay, and of the flush only what was published after it joined —
// nothing at all when that is empty. The InputManager drops duplicate
// stable ids only in seq-1 batches, so a second copy in the seq-2 flush
// would reach the SUnion.
func TestSubscribeMidInstantDeliversOnce(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	got := map[string][]DataMsg{}
	for _, ep := range []string{"d1", "d2"} {
		net.Register(ep, func(_ string, msg any) { got[ep] = append(got[ep], msg.(DataMsg)) })
	}
	ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, nil)
	msgs := func(ep string) string {
		var b strings.Builder
		for _, m := range got[ep] {
			fmt.Fprintf(&b, "seq %d:", m.Seq)
			for _, t := range m.Tuples {
				fmt.Fprintf(&b, " %s%d", t.Type.String()[:1], t.ID)
			}
			b.WriteString("; ")
		}
		return b.String()
	}

	ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
	ob.PublishBatch([]tuple.Tuple{ins(1, 1), ins(2, 2)})
	ob.Subscribe("d2", SubscribeMsg{Stream: "s"})
	sim.Run()
	if g, want := msgs("d2"), "seq 1: I1 I2; "; g != want {
		t.Fatalf("d2 joining after the instant's only publish got %q, want %q", g, want)
	}
	if g, want := msgs("d1"), "seq 1: I1 I2; "; g != want {
		t.Fatalf("d1 got %q, want %q", g, want)
	}

	// Joining again between publishes of one instant, an UNDO before and
	// after: the replay carries what the log held, the flush the rest.
	publishOne(ob, tent(3, 3))
	publishOne(ob, tuple.NewUndo(2))
	publishOne(ob, ins(3, 3))
	ob.Subscribe("d2", SubscribeMsg{Stream: "s", FromID: 2})
	publishOne(ob, tent(4, 4))
	publishOne(ob, tuple.NewUndo(3))
	ob.PublishBatch([]tuple.Tuple{ins(4, 4), ins(5, 5)})
	sim.Run()
	if g, want := msgs("d2"), "seq 1: I1 I2; seq 1: I3; seq 2: T4 U3 I4 I5; "; g != want {
		t.Fatalf("d2 rejoining mid-instant got %q, want %q", g, want)
	}
	if g, want := msgs("d1"), "seq 1: I1 I2; seq 2: T3 U2 I3 T4 U3 I4 I5; "; g != want {
		t.Fatalf("d1 got %q, want %q", g, want)
	}
}

// TestRecDoneInstantsLeaveNoStub: alternating instants that end in a
// REC_DONE (whose data is staged into pending early) with plain data
// instants keeps the log in staged segments only, each filled before the
// next starts, so no segment is kept for a few tuples and nothing a flush
// sent is held.
func TestRecDoneInstantsLeaveNoStub(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	net.Register("d1", func(string, any) {})
	ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, nil)
	ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
	id := uint64(0)
	data := func() []tuple.Tuple {
		ts := make([]tuple.Tuple, 8)
		for i := range ts {
			id++
			ts[i] = ins(id, int64(id))
		}
		return ts
	}
	for pair := 0; pair < 100; pair++ {
		ob.PublishBatch(data())
		publishOne(ob, tuple.NewRecDone(int64(id)))
		sim.Run()
		ob.PublishBatch(data())
		sim.Run()
		checkTupleLog(t, fmt.Sprintf("pair %d", pair), &ob.log)
		if want := (ob.log.n + obSegSize - 1) / obSegSize; len(ob.log.runs) != want || ob.log.pool.Kept() != 0 {
			t.Fatalf("pair %d: %d tuples in %d runs with %d pooled segments, want %d runs and none pooled", pair, ob.log.n, len(ob.log.runs), ob.log.pool.Kept(), want)
		}
	}
	if got := ob.after(0); len(got) != int(id) || got[len(got)-1].ID != id {
		t.Fatalf("the log holds %d tuples, want all %d", len(got), id)
	}
}
