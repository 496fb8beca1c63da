package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// obTwin drives the segmented OutputBuffer and the slice reference model
// (outputbuffer_ref_test.go) through the same calls, each on its own
// simulator and network, recording every DataMsg each delivers.
type obTwin struct {
	t                *testing.T
	fab              obFabric
	simA, simB       *runtime.VirtualClock
	got              *OutputBuffer
	ref              *refOutputBuffer
	sentGot, sentRef *[]obSent
	checked          int      // delivered messages already compared
	ids              []uint64 // ids of data tuples published so far
	nextID           uint64
	stime            int64
}

// obFabric names the kind of fabric a twin runs on: netsim, whose
// receivers here keep every array they get, or a stub that records a copy
// of each message during Send. Both copy the buffer's lent flush array, so
// the buffer reuses it, and both must see the same messages.
type obFabric string

const (
	obNetsim  obFabric = "netsim"
	obCopying obFabric = "copying"
)

var obFabrics = []obFabric{obNetsim, obCopying}

var obTwinEndpoints = []string{"d1", "d2", "d3", "x"}

// obSent is one delivered DataMsg and its receiver.
type obSent struct {
	to  string
	msg DataMsg
}

// obRecorder is the copying stub: Send records a copy of the message at
// once, as the TCP fabric encodes it before Send returns.
type obRecorder struct{ sent *[]obSent }

func (r obRecorder) Register(string, fabric.Handler) {}
func (r obRecorder) SetDown(string, bool)            {}
func (r obRecorder) Send(_, to string, msg any) {
	m := msg.(DataMsg)
	m.Tuples = slices.Clone(m.Tuples)
	*r.sent = append(*r.sent, obSent{to, m})
}

func newOBTwin(t *testing.T, fab obFabric, mode BufferMode, capTuples int, expected []string) *obTwin {
	build := func() (*runtime.VirtualClock, fabric.Fabric, *[]obSent) {
		sim := runtime.NewVirtual()
		sent := &[]obSent{}
		if fab == obCopying {
			return sim, obRecorder{sent}, sent
		}
		net := netsim.New(sim)
		net.Register("up", func(string, any) {})
		for _, ep := range obTwinEndpoints {
			net.Register(ep, func(_ string, msg any) {
				*sent = append(*sent, obSent{ep, msg.(DataMsg)})
			})
		}
		return sim, net, sent
	}
	w := &obTwin{t: t, fab: fab}
	var netA, netB fabric.Fabric
	w.simA, netA, w.sentGot = build()
	w.simB, netB, w.sentRef = build()
	w.got = NewOutputBuffer(w.simA, netA, "up", "s", mode, capTuples, expected)
	w.ref = newRefOutputBuffer(w.simB, netB, "up", "s", mode, capTuples, expected)
	return w
}

// check compares everything observable after a step: lengths, counters,
// subscribers, the replay suffix after every id ever published (and 0),
// and the messages delivered so far.
func (w *obTwin) check(step string) {
	w.t.Helper()
	g, r := w.got, w.ref
	if g.Len() != r.Len() || g.Truncated != r.Truncated || g.Blocked != r.Blocked {
		w.t.Fatalf("%s: Len/Truncated/Blocked %d/%d/%v, reference %d/%d/%v",
			step, g.Len(), g.Truncated, g.Blocked, r.Len(), r.Truncated, r.Blocked)
	}
	if gs, rs := fmt.Sprint(g.Subscribers()), fmt.Sprint(r.Subscribers()); gs != rs {
		w.t.Fatalf("%s: subscribers %s, reference %s", step, gs, rs)
	}
	probe := []uint64{0, 1 << 40}
	if n := len(w.ids); n > 0 {
		probe = append(probe, w.ids[0], w.ids[n/2], w.ids[n-1])
	}
	for _, id := range probe {
		if ga, ra := g.after(id), r.after(id); !sameTuples(ga, ra) {
			w.t.Fatalf("%s: after(%d) has %d tuples, reference %d", step, id, len(ga), len(ra))
		}
	}
	w.compareSent(step)
	w.checkRuns(step)
}

// compareSent compares the messages delivered since the last comparison.
func (w *obTwin) compareSent(step string) {
	w.t.Helper()
	if len(*w.sentGot) != len(*w.sentRef) {
		w.t.Fatalf("%s: %d messages delivered, reference %d", step, len(*w.sentGot), len(*w.sentRef))
	}
	for ; w.checked < len(*w.sentGot); w.checked++ {
		a, b := (*w.sentGot)[w.checked], (*w.sentRef)[w.checked]
		if a.to != b.to || a.msg.Stream != b.msg.Stream || a.msg.Seq != b.msg.Seq || !sameTuples(a.msg.Tuples, b.msg.Tuples) {
			w.t.Fatalf("%s: message %d\n got %s %+v\nwant %s %+v", step, w.checked, a.to, a.msg, b.to, b.msg)
		}
	}
}

// recheckSent compares every message ever delivered once more: a receiver
// keeps each array netsim delivered, so a buffer whose writes reached a
// delivered array after the comparison shows here.
func (w *obTwin) recheckSent(step string) {
	w.t.Helper()
	w.checked = 0
	w.compareSent(step + " (all messages again)")
}

// checkRuns checks the log's own invariants: the runs hold n tuples and
// none is empty; every run is staged, a window of a segment no other run or
// the pool holds (the log never holds an array a flush sent); it reaches
// the end of that segment unless it is the last run, and no slot of that
// segment outside the window, nor of a pooled segment, pins a payload.
func (w *obTwin) checkRuns(step string) {
	w.t.Helper()
	checkTupleLog(w.t, step, &w.got.log)
}

// checkTupleLog holds a TupleLog to the invariants checkRuns lists.
func checkTupleLog(t *testing.T, step string, g *TupleLog) {
	t.Helper()
	zero := func(ts []tuple.Tuple) bool {
		for j := range ts {
			if ts[j].Type != 0 || ts[j].ID != 0 || ts[j].Len() != 0 {
				return false
			}
		}
		return true
	}
	seen := make(map[*tuple.Tuple]bool)
	n := 0
	for i, r := range g.runs {
		n += len(r.ts)
		if len(r.ts) == 0 {
			t.Fatalf("%s: run %d of %d is empty", step, i, len(g.runs))
		}
		if r.seg == nil {
			t.Fatalf("%s: run %d of %d is not staged in a segment", step, i, len(g.runs))
		}
		lo := len(r.seg) - cap(r.ts)
		if lo < 0 || seen[&r.seg[0]] || &r.seg[lo] != &r.ts[0] {
			t.Fatalf("%s: run %d is not a window of a segment of its own", step, i)
		}
		seen[&r.seg[0]] = true
		if i < len(g.runs)-1 && len(r.ts) < cap(r.ts) {
			t.Fatalf("%s: staged run %d of %d ends mid-segment", step, i, len(g.runs))
		}
		if !zero(r.seg[:lo]) || !zero(r.seg[lo+len(r.ts):]) {
			t.Fatalf("%s: a dead slot of run %d's segment holds a tuple", step, i)
		}
	}
	if n != g.n {
		t.Fatalf("%s: runs hold %d tuples, n = %d", step, n, g.n)
	}
	// Lend every pooled segment and give them back in reverse, which
	// leaves the pool as it was.
	pooled := make([][]tuple.Tuple, g.pool.Kept())
	for i := range pooled {
		s := g.pool.Lend(obSegSize)
		s = s[:cap(s)]
		if seen[&s[0]] || !zero(s) {
			t.Fatalf("%s: a pooled segment is in use or holds a tuple", step)
		}
		seen[&s[0]] = true
		pooled[i] = s
	}
	for i := len(pooled) - 1; i >= 0; i-- {
		g.pool.Return(pooled[i])
	}
}

// tailStore returns the segment of the log's last run.
func tailStore(l *TupleLog) *tuple.Tuple {
	if k := len(l.runs); k > 0 {
		return &l.runs[k-1].seg[0]
	}
	return nil
}

func sameTuples(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (w *obTwin) data(tentative bool) tuple.Tuple {
	w.nextID++
	w.stime++
	w.ids = append(w.ids, w.nextID)
	t := tuple.Tuple{Type: tuple.Insertion, ID: w.nextID, STime: w.stime}.WithData(int64(w.nextID))
	if tentative {
		t.Type = tuple.Tentative
	}
	return t
}

func (w *obTwin) publish(t tuple.Tuple) {
	w.t.Helper()
	if a, b := publishOne(w.got, t), w.ref.Publish(t); a != b {
		w.t.Fatalf("Publish(%v) = %v, reference %v", t, a, b)
	}
}

func (w *obTwin) publishBatch(ts []tuple.Tuple) {
	w.t.Helper()
	if a, b := w.got.PublishBatch(ts), w.ref.PublishBatch(ts); a != b {
		w.t.Fatalf("PublishBatch(%d tuples) = %v, reference %v", len(ts), a, b)
	}
}

func (w *obTwin) ack(from string, upTo uint64) {
	w.got.Ack(from, upTo)
	w.ref.Ack(from, upTo)
}

func (w *obTwin) subscribe(from string, m SubscribeMsg) {
	w.got.Subscribe(from, m)
	w.ref.Subscribe(from, m)
}

func (w *obTwin) run() {
	w.simA.Run()
	w.simB.Run()
}

// boundaryID returns the id of a live data tuple sitting at (or just past)
// the boundary between two runs of the log, so acks and undos land there.
func (w *obTwin) boundaryID(rng *rand.Rand) (uint64, bool) {
	g := &w.got.log
	i := 0
	for _, r := range g.runs {
		if j := i + rng.Intn(2) - 1; i > 0 && j < g.n && rng.Intn(2) == 0 {
			if t := g.at(j); t.IsData() {
				return t.ID, true
			}
		}
		i += len(r.ts)
	}
	return 0, false
}

// pickID returns an id to ack, undo to or replay from: a live boundary id,
// any id ever published, or one that was never used.
func (w *obTwin) pickID(rng *rand.Rand) uint64 {
	r := rng.Intn(10)
	if r < 4 {
		if id, ok := w.boundaryID(rng); ok {
			return id
		}
	}
	switch {
	case r < 8 && len(w.ids) > 0:
		return w.ids[len(w.ids)-1-rng.Intn(min(len(w.ids), 3000))]
	case r < 9:
		return 0
	default:
		return w.nextID + 1 + uint64(rng.Intn(5))
	}
}

func (w *obTwin) step(rng *rand.Rand, i int) string {
	tent := rng.Intn(4) == 0
	switch r := rng.Intn(100); {
	case r < 25:
		n := 1 + rng.Intn(40)
		for k := 0; k < n; k++ {
			w.publish(w.data(tent))
		}
		return fmt.Sprintf("step %d: %d Publish", i, n)
	case r < 30:
		w.stime++
		w.publish(tuple.NewBoundary(w.stime))
		return fmt.Sprintf("step %d: boundary", i)
	case r < 35:
		id := w.pickID(rng)
		w.publish(tuple.NewUndo(id))
		return fmt.Sprintf("step %d: undo(%d)", i, id)
	case r < 37:
		w.publish(tuple.NewRecDone(w.stime))
		return fmt.Sprintf("step %d: rec_done", i)
	case r < 62:
		n := 1 + rng.Intn(3*obSegSize/2)
		ts := make([]tuple.Tuple, 0, n+1)
		for k := 0; k < n; k++ {
			switch {
			case rng.Intn(50) == 0:
				w.stime++
				ts = append(ts, tuple.NewBoundary(w.stime))
			case rng.Intn(400) == 0:
				ts = append(ts, tuple.NewUndo(w.pickID(rng)))
			default:
				ts = append(ts, w.data(tent && rng.Intn(2) == 0))
			}
		}
		w.publishBatch(ts)
		return fmt.Sprintf("step %d: PublishBatch(%d)", i, n)
	case r < 77:
		from := obTwinEndpoints[rng.Intn(len(obTwinEndpoints))]
		id := w.pickID(rng)
		w.ack(from, id)
		return fmt.Sprintf("step %d: Ack(%s, %d)", i, from, id)
	case r < 85:
		from := obTwinEndpoints[rng.Intn(3)]
		m := SubscribeMsg{Stream: "s", FromID: w.pickID(rng), SeenTentative: rng.Intn(3) == 0, TailOnly: rng.Intn(5) == 0}
		w.subscribe(from, m)
		return fmt.Sprintf("step %d: Subscribe(%s, %+v)", i, from, m)
	case r < 87:
		from := obTwinEndpoints[rng.Intn(3)]
		w.got.Unsubscribe(from)
		w.ref.Unsubscribe(from)
		return fmt.Sprintf("step %d: Unsubscribe(%s)", i, from)
	case r < 88:
		w.got.Reset()
		w.ref.Reset()
		return fmt.Sprintf("step %d: Reset", i)
	default:
		w.run()
		return fmt.Sprintf("step %d: run", i)
	}
}

// TestOutputBufferMatchesReference drives the segmented buffer and the
// slice reference with seeded random call sequences — data, boundaries,
// tentative runs, anchored/unanchored/zero UNDOs, REC_DONE, bulk publishes,
// acks from expected and unexpected endpoints, subscriptions with every
// flag, Reset — under every buffer mode, on netsim and on a copying stub,
// and requires identical observable state and identical delivered messages
// after every step, every message unchanged at the end, and a log of staged
// segments only.
func TestOutputBufferMatchesReference(t *testing.T) {
	configs := []struct {
		mode     BufferMode
		cap      int
		expected []string
	}{
		{BufferUnbounded, 0, nil},
		{BufferUnbounded, 0, []string{"d1", "d2"}},
		{BufferSlide, obSegSize, nil},
		{BufferSlide, 2*obSegSize + 37, []string{"d1"}},
		{BufferBlock, 3 * obSegSize, []string{"d1", "d2"}},
		{BufferBlock, obSegSize - 1, []string{"d2"}},
	}
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, fab := range obFabrics {
		for ci, c := range configs {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(1000*ci + seed)))
				w := newOBTwin(t, fab, c.mode, c.cap, c.expected)
				// crossed counts the steps after which the log's last run
				// lies in another segment.
				crossed := 0
				for i := 0; i < 250; i++ {
					before := tailStore(&w.got.log)
					what := w.step(rng, i)
					w.check(fmt.Sprintf("%s config %d seed %d %s", fab, ci, seed, what))
					if after := tailStore(&w.got.log); after != nil && after != before {
						crossed++
					}
				}
				w.run()
				w.check(fmt.Sprintf("%s config %d seed %d final run", fab, ci, seed))
				w.recheckSent(fmt.Sprintf("%s config %d seed %d", fab, ci, seed))
				if crossed < 3 {
					t.Errorf("%s config %d seed %d: the log's end moved to another segment only %d times", fab, ci, seed, crossed)
				}
			}
		}
	}
}

// TestOutputBufferSegmentBoundaries pins acks, slides and undos that land
// exactly on, just before and just after segment boundaries, and the same
// pattern at half-segment points, which lands mid-segment, on both kinds of
// fabric. Each ack lands in one instant still pending (no flush before it),
// in one flushed instant, and in flushes of half a segment.
func TestOutputBufferSegmentBoundaries(t *testing.T) {
	const total = 4*obSegSize + 100
	const half = obSegSize / 2
	cuts := []int{
		1, half - 1, half, half + 1, obSegSize - 1, obSegSize, obSegSize + 1,
		3*half - 1, 3 * half, 2 * obSegSize, 4*half + 100, 3*obSegSize - 1, 3 * obSegSize, total,
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("ack=%d", cut), func(t *testing.T) {
			for _, fab := range obFabrics {
				for _, instant := range []int{total + 1, total, half} {
					w := newOBTwin(t, fab, BufferUnbounded, 0, []string{"d1"})
					w.subscribe("d1", SubscribeMsg{Stream: "s"})
					for i := 0; i < total; i++ {
						w.publish(w.data(false))
						if i%instant == instant-1 {
							w.run()
						}
					}
					w.ack("d1", uint64(cut))
					w.check(fmt.Sprintf("%s instants of %d: ack", fab, instant))
					// Everything past the cut, then more: the recycled
					// segments come back into use.
					for i := 0; i < 2*obSegSize; i++ {
						w.publish(w.data(false))
					}
					w.run()
					w.check(fmt.Sprintf("%s instants of %d: refill", fab, instant))
					w.recheckSent(fmt.Sprintf("%s instants of %d", fab, instant))
				}
			}
		})
		t.Run(fmt.Sprintf("undo=%d", cut), func(t *testing.T) {
			for _, fab := range obFabrics {
				w := newOBTwin(t, fab, BufferUnbounded, 0, nil)
				for i := 0; i < total; i++ {
					w.publish(w.data(i >= cut))
				}
				w.publish(tuple.NewUndo(uint64(cut)))
				w.check("anchored undo")
				if w.got.Len() != cut {
					t.Fatalf("%s: anchored undo kept %d tuples, want %d", fab, w.got.Len(), cut)
				}
				for i := 0; i < obSegSize+3; i++ {
					w.publish(w.data(true))
				}
				w.publish(tuple.NewUndo(w.nextID + 7)) // unanchored: strip tentative
				w.check("unanchored undo")
				if w.got.Len() != cut {
					t.Fatalf("%s: strip-tentative kept %d tuples, want %d", fab, w.got.Len(), cut)
				}
				w.publish(tuple.NewUndo(0))
				w.check("undo to origin")
				w.publishBatch([]tuple.Tuple{w.data(false), w.data(false)})
				w.check("after origin undo")
			}
		})
		t.Run(fmt.Sprintf("slide=%d", cut), func(t *testing.T) {
			for _, fab := range obFabrics {
				w := newOBTwin(t, fab, BufferSlide, cut, nil)
				for i := 0; i < total; i++ {
					w.publish(w.data(false))
					if i%97 == 0 {
						w.check(fmt.Sprintf("%s slide %d", fab, i))
					}
				}
				w.publishBatch([]tuple.Tuple{w.data(false), w.data(false), w.data(false)})
				w.check(fmt.Sprintf("%s slide end", fab))
			}
		})
	}
}
