package source

import (
	goruntime "runtime"
	"testing"
	"unsafe"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

type sink struct {
	tuples []tuple.Tuple
}

func setup(cfg Config) (*runtime.VirtualClock, *netsim.Net, *Source, *sink) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	cfg.ID = "src"
	cfg.Stream = "s"
	s := New(sim, net, cfg)
	k := &sink{}
	net.Register("dn", func(_ string, msg any) {
		if dm, ok := msg.(node.DataMsg); ok {
			k.tuples = append(k.tuples, dm.Tuples...)
		}
	})
	return sim, net, s, k
}

func subscribe(net *netsim.Net, sim *runtime.VirtualClock, from uint64) {
	net.Send("dn", "src", node.SubscribeMsg{Stream: "s", FromID: from})
	sim.RunFor(10 * ms)
}

func data(ts []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range ts {
		if t.IsData() {
			out = append(out, t)
		}
	}
	return out
}

func bounds(ts []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range ts {
		if t.Type == tuple.Boundary {
			out = append(out, t)
		}
	}
	return out
}

func TestSourceRateAndTimestamps(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(2 * sec)
	got := data(k.tuples)
	if len(got) < 190 || len(got) > 210 {
		t.Fatalf("rate wrong: %d tuples in 2s at 100/s", len(got))
	}
	for i, tp := range got {
		if tp.ID != uint64(i+1) {
			t.Fatalf("ids not sequential: %v at %d", tp, i)
		}
		if tp.STime <= 0 || tp.STime > sim.Now() {
			t.Fatalf("bad stime: %v", tp)
		}
	}
}

func TestSourceBoundaryCadenceAndContract(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100, BoundaryInterval: 100 * ms})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	bs := bounds(k.tuples)
	if len(bs) < 9 || len(bs) > 11 {
		t.Fatalf("boundary cadence wrong: %d in 1s at 100ms", len(bs))
	}
	// Punctuation contract: no later tuple may have stime below an
	// earlier boundary.
	maxBound := int64(-1)
	for _, tp := range k.tuples {
		if tp.Type == tuple.Boundary {
			if tp.STime > maxBound {
				maxBound = tp.STime
			}
		} else if tp.IsData() && tp.STime < maxBound {
			t.Fatalf("boundary contract violated: %v after boundary %d", tp, maxBound)
		}
	}
}

func TestSourceSubscribeFromIDReplays(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	s.Start()
	sim.RunFor(1 * sec) // 100 tuples logged, nobody listening
	subscribe(net, sim, 50)
	sim.RunFor(100 * ms)
	got := data(k.tuples)
	if len(got) == 0 || got[0].ID != 51 {
		t.Fatalf("replay must start after id 50: %v", got[:min(3, len(got))])
	}
}

func TestSourceDisconnectReplaysOnReconnect(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	s.Disconnect()
	sim.RunFor(20 * ms) // drain in-flight messages
	before := len(data(k.tuples))
	sim.RunFor(2 * sec)
	if len(data(k.tuples)) != before {
		t.Fatal("disconnected source must not transmit")
	}
	if s.Produced < 250 {
		t.Fatalf("production must continue while disconnected: %d", s.Produced)
	}
	s.Reconnect()
	sim.RunFor(100 * ms)
	got := data(k.tuples)
	// Everything missed arrives; ids stay gap-free.
	for i, tp := range got {
		if tp.ID != uint64(i+1) {
			t.Fatalf("gap after reconnect at %d: %v", i, tp)
		}
	}
	if len(got) < 290 {
		t.Fatalf("missed tuples not replayed: %d", len(got))
	}
}

func TestSourceStallBoundariesKeepsDataFlowing(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100, BoundaryInterval: 100 * ms})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	s.StallBoundaries()
	sim.RunFor(20 * ms) // drain in-flight messages
	nData, nBounds := len(data(k.tuples)), len(bounds(k.tuples))
	sim.RunFor(1 * sec)
	if len(bounds(k.tuples)) != nBounds {
		t.Fatal("stalled source must not emit boundaries")
	}
	if len(data(k.tuples)) <= nData+80 {
		t.Fatalf("data must keep flowing during a stall: %d → %d", nData, len(data(k.tuples)))
	}
	s.ResumeBoundaries()
	sim.RunFor(200 * ms)
	if len(bounds(k.tuples)) <= nBounds {
		t.Fatal("boundaries must resume")
	}
}

func TestSourceBoundedLogDrops(t *testing.T) {
	sim, _, s, _ := setup(Config{Rate: 1000, LogCap: 100})
	s.Start()
	sim.RunFor(1 * sec)
	if s.LogLen() > 100 {
		t.Fatalf("log exceeded cap: %d", s.LogLen())
	}
	if s.DroppedLog == 0 {
		t.Fatal("bounded log must report drops")
	}
}

func TestSourceKeepAliveAlwaysStable(t *testing.T) {
	sim, net, _, _ := setup(Config{Rate: 100})
	var resp *node.KeepAliveResp
	net.Register("probe", func(_ string, msg any) {
		if r, ok := msg.(node.KeepAliveResp); ok {
			resp = &r
		}
	})
	net.Send("probe", "src", node.KeepAliveReq{})
	sim.RunFor(50 * ms)
	if resp == nil || resp.Node != node.StateStable || resp.Streams["s"] != node.StateStable {
		t.Fatalf("keep-alive resp: %+v", resp)
	}
}

func TestSourceUnsubscribeStops(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(500 * ms)
	net.Send("dn", "src", node.UnsubscribeMsg{Stream: "s"})
	sim.RunFor(50 * ms)
	n := len(k.tuples)
	sim.RunFor(1 * sec)
	if len(k.tuples) != n {
		t.Fatal("unsubscribed sink still receiving")
	}
}

// logTuple is the i-th data tuple appended by the bounded-log tests.
func logTuple(i int) tuple.Tuple {
	return tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i)}
}

// segment is the length of a full segment of the source's log (the node
// package's TupleLog).
const segment = 1024

// oldest returns the log's slot of its oldest live tuple.
func oldest(s *Source) *tuple.Tuple {
	var p *tuple.Tuple
	s.log.Chunks(func(ts []tuple.Tuple) {
		if p == nil {
			p = &ts[0]
		}
	})
	return p
}

// runCaps returns, for each run of the source's log, the slots from its
// first tuple to the end of its segment: every run is a window of one
// segment that reaches the segment's end.
func runCaps(s *Source) []int {
	var caps []int
	s.log.Chunks(func(ts []tuple.Tuple) { caps = append(caps, cap(ts)) })
	return caps
}

// checkWindow fails unless the log holds exactly the ids first, first+1, …
func checkWindow(t *testing.T, s *Source, first int) {
	t.Helper()
	var got []tuple.Tuple
	s.log.Chunks(func(ts []tuple.Tuple) { got = append(got, ts...) })
	if len(got) != s.LogLen() {
		t.Fatalf("log holds %d tuples, LogLen %d", len(got), s.LogLen())
	}
	for i, tp := range got {
		if want := logTuple(first + i); !tuple.Equal(tp, want) {
			t.Fatalf("log[%d] = %v, want %v", i, tp, want)
		}
	}
}

func TestSourceBoundedLogAppendIsLinear(t *testing.T) {
	// A full capped log once recopied itself on every append: 100 000
	// appends at LogCap 1 000 moved 10^8 tuples (~5 GB).
	_, _, s, _ := setup(Config{LogCap: 1000})
	const n = 100000
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		s.append(logTuple(i))
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 512 {
		t.Fatalf("an append to a full capped log allocates %d B on average, want O(1) (≤ 512 B)", per)
	}
	if s.LogLen() != 1000 || s.DroppedLog != n-1000 {
		t.Fatalf("LogLen %d, DroppedLog %d; want 1000, %d", s.LogLen(), s.DroppedLog, n-1000)
	}
	checkWindow(t, s, n-1000+1)
	if caps := runCaps(s); len(caps) > 2 {
		t.Fatalf("%d segments live for a 1000-tuple window; evicted segments must be released", len(caps))
	}
}

func TestSourceSmallLogCapKeepsSmallSegments(t *testing.T) {
	// A log bounded below one full segment must not pin one: at LogCap 64
	// the live log sits in at most two 64-tuple segments, and eviction
	// recycles them, so 10 000 appends allocate fewer than three.
	_, _, s, _ := setup(Config{LogCap: 64})
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 1; i <= 10000; i++ {
		s.append(logTuple(i))
	}
	goruntime.ReadMemStats(&after)
	// A loanpoison build never lends a returned segment again.
	if got, seg := after.TotalAlloc-before.TotalAlloc, uint64(64*unsafe.Sizeof(tuple.Tuple{})); got >= 3*seg && !tuple.Poisoning() {
		t.Fatalf("10 000 appends allocated %d B, want < 3 segments of %d B", got, seg)
	}
	for i := 10001; i <= 10200; i++ {
		s.append(logTuple(i))
		if caps := runCaps(s); len(caps) > 2 || caps[len(caps)-1] > 64 {
			t.Fatalf("after %d appends: runs reaching %v slots, want ≤ 2 of ≤ 64", i, caps)
		}
	}
	if s.LogLen() != 64 {
		t.Fatalf("LogLen %d, want 64", s.LogLen())
	}
	checkWindow(t, s, 10200-63)
}

// copyingFabric is a stub fabric whose Send copies a message's tuples, as
// every fabric copies a lent array, and keeps nothing of the sender's.
type copyingFabric struct{ got []tuple.Tuple }

func (f *copyingFabric) Register(string, fabric.Handler) {}
func (f *copyingFabric) SetDown(string, bool)            {}
func (f *copyingFabric) Send(_, _ string, msg any) {
	if m, ok := msg.(node.DataMsg); ok {
		f.got = append(f.got[:0], m.Tuples...)
	}
}

func TestSourceCappedLogRecyclesSegments(t *testing.T) {
	// At LogCap 1 000 eviction hands every emptied segment to the next
	// appends, and a flush copies into the array the last one lent: in
	// steady state appending and flushing allocate nothing but the boxed
	// DataMsg each Send takes.
	f := &copyingFabric{}
	s := New(runtime.NewVirtual(), f, Config{ID: "src", Stream: "s", LogCap: 1000})
	s.handle("dn", node.SubscribeMsg{Stream: "s"})
	next := 1
	op := func() {
		for i := 0; i < 10; i++ {
			s.append(logTuple(next))
			next++
		}
		s.flush()
	}
	for i := 0; i < 4*segment/10; i++ {
		op()
	}
	if a := testing.AllocsPerRun(4*segment/10, op); a != 1 {
		t.Fatalf("an append-and-flush step allocates %.2f times, want 1 (the boxed DataMsg)", a)
	}
	if len(f.got) != 10 || f.got[0].ID != uint64(next-10) {
		t.Fatalf("last flush sent %v, want ids %d…%d", f.got, next-10, next-1)
	}
	checkWindow(t, s, next-1000)
}

func TestSourceBoundedLogKeepsSentBatchesIntact(t *testing.T) {
	// Later appends, segment crossings and eviction must leave every batch
	// already handed out exactly as it was sent, and every batch must hold
	// the tuples logged at its positions.
	for _, logCap := range []int{64, segment + 100, 0} {
		sim, net, s, _ := setup(Config{LogCap: logCap})
		var held [][]tuple.Tuple
		var want [][]tuple.Tuple
		net.Register("dn", func(_ string, msg any) {
			if dm, ok := msg.(node.DataMsg); ok {
				held = append(held, dm.Tuples)
				want = append(want, append([]tuple.Tuple(nil), dm.Tuples...))
			}
		})
		subscribe(net, sim, 0)
		// Flushing every 61 appends keeps the subscriber inside even the
		// 64-tuple window, and batches straddle segment boundaries.
		const n = 3*segment + 500
		for i := 1; i <= n; i++ {
			s.append(logTuple(i))
			if i%61 == 0 || i == n {
				s.flush()
				sim.RunFor(ms)
			}
		}
		sim.RunFor(10 * ms) // deliver the batches still in flight
		if len(held) < n/61 {
			t.Fatalf("LogCap %d: only %d batches sent", logCap, len(held))
		}
		next := uint64(1)
		for b := range held {
			for i := range held[b] {
				if !tuple.Equal(held[b][i], want[b][i]) {
					t.Fatalf("LogCap %d: batch %d slot %d changed after sending: %v, sent %v",
						logCap, b, i, held[b][i], want[b][i])
				}
			}
			// A subscriber never behind the horizon receives every
			// position exactly once, in order.
			for _, tp := range held[b] {
				if tp.ID != next {
					t.Fatalf("LogCap %d: batch %d holds id %d, want %d", logCap, b, tp.ID, next)
				}
				next++
			}
		}
		if next != n+1 {
			t.Fatalf("LogCap %d: %d tuples delivered, want %d", logCap, next-1, n)
		}
	}
}

func TestSourceFlushSpanningSegments(t *testing.T) {
	// A reconnect replay covers several segments; the batch must equal the
	// logged tuples, and writing into the delivered array must not reach
	// the log.
	sim, net, s, k := setup(Config{})
	subscribe(net, sim, 0)
	s.Disconnect()
	const n = 2*segment + segment/2
	for i := 1; i <= n; i++ {
		s.append(logTuple(i))
	}
	s.Reconnect()
	s.flush()
	sim.RunFor(10 * ms)
	if len(k.tuples) != n {
		t.Fatalf("replay delivered %d tuples, want %d", len(k.tuples), n)
	}
	for i, tp := range k.tuples {
		if !tuple.Equal(tp, logTuple(i+1)) {
			t.Fatalf("replay[%d] = %v, want %v", i, tp, logTuple(i+1))
		}
		k.tuples[i] = logTuple(-1)
	}
	checkWindow(t, s, 1)
}

func TestSourceUnboundedLogNeverRecopies(t *testing.T) {
	// An unbounded log grows a segment at a time: 100 000 appends allocate
	// about the tuples' own bytes, and the first segment never moves.
	_, _, s, _ := setup(Config{})
	const n = 100000
	s.append(logTuple(1))
	first := oldest(s)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 2; i <= n; i++ {
		s.append(logTuple(i))
	}
	goruntime.ReadMemStats(&after)
	own := float64(n) * float64(unsafe.Sizeof(tuple.Tuple{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*own {
		t.Fatalf("%d appends allocated %.0f B, want ≤ 1.1 × %.0f B", n, got, own)
	}
	if oldest(s) != first {
		t.Fatal("the first segment was recopied")
	}
	if s.LogLen() != n {
		t.Fatalf("LogLen %d, want %d", s.LogLen(), n)
	}
	checkWindow(t, s, 1)
}

func TestSourceBoundedLogPositionsAndReplay(t *testing.T) {
	sim, net, s, k := setup(Config{LogCap: 100})
	// A subscriber that falls behind the horizon resumes at the oldest
	// tuple still logged, gap-free from there.
	subscribe(net, sim, 0)
	s.Disconnect()
	for i := 1; i <= 1000; i++ {
		s.append(logTuple(i))
	}
	if s.DroppedLog != 900 || s.LogLen() != 100 {
		t.Fatalf("DroppedLog %d, LogLen %d; want 900, 100", s.DroppedLog, s.LogLen())
	}
	s.Reconnect()
	s.flush()
	sim.RunFor(10 * ms)
	if len(k.tuples) != 100 || k.tuples[0].ID != 901 || k.tuples[99].ID != 1000 {
		t.Fatalf("lagging subscriber got %d tuples from id %d", len(k.tuples), k.tuples[0].ID)
	}
	// FromID inside the window replays after it; FromID behind the horizon
	// (evicted) replays the whole window.
	for _, c := range []struct{ from, first uint64 }{{950, 951}, {1000, 0}, {500, 901}, {0, 901}} {
		k.tuples = nil
		subscribe(net, sim, c.from)
		switch {
		case c.first == 0 && len(k.tuples) != 0:
			t.Fatalf("FromID %d: want nothing, got %d tuples", c.from, len(k.tuples))
		case c.first != 0 && (len(k.tuples) == 0 || k.tuples[0].ID != c.first || k.tuples[len(k.tuples)-1].ID != 1000):
			t.Fatalf("FromID %d: replay %v, want %d..1000", c.from, k.tuples, c.first)
		}
	}
}
