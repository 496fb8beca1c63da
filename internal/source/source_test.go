package source

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sort"
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

// logTuple is the tuple the bounded-log tests' i-th one-tuple tick logs.
func logTuple(i int) tuple.Tuple {
	t := tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i)}
	t.SetData(nil, int64(i))
	return t
}

// logTicks logs the one-tuple ticks first, first+1, …, last, each stamped
// with its own number, which is also its tuple's id when the log starts
// at the first.
func logTicks(s *Source, first, last int) {
	for i := first; i <= last; i++ {
		s.logTick(int64(i), 1, false)
	}
}

// checkWindow fails unless the log holds exactly the ids first, first+1, …
func checkWindow(t *testing.T, s *Source, first int) {
	t.Helper()
	got := s.regenerate(nil, s.DroppedLog)
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
	logTicks(s, 1, n)
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 512 {
		t.Fatalf("an append to a full capped log allocates %d B on average, want O(1) (≤ 512 B)", per)
	}
	if s.LogLen() != 1000 || s.DroppedLog != n-1000 {
		t.Fatalf("LogLen %d, DroppedLog %d; want 1000, %d", s.LogLen(), s.DroppedLog, n-1000)
	}
	checkWindow(t, s, n-1000+1)
	if len(s.recs) > 2*1000 {
		t.Fatalf("%d records kept for a 1000-tuple window; evicted records must be released", len(s.recs))
	}
}

func TestSourceSmallLogCapKeepsSmallSegments(t *testing.T) {
	// A small LogCap keeps a small record slice: at LogCap 64 at most 64
	// one-tuple ticks are live, and compaction keeps the slice below twice
	// that, so once it has grown 10 000 ticks allocate less than three
	// copies of the 64 tuples they stand for.
	_, _, s, _ := setup(Config{LogCap: 64})
	logTicks(s, 1, 200)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	logTicks(s, 201, 10200)
	goruntime.ReadMemStats(&after)
	if got, seg := after.TotalAlloc-before.TotalAlloc, uint64(64*unsafe.Sizeof(tuple.Tuple{})); got >= 3*seg {
		t.Fatalf("10 000 ticks allocated %d B, want < 3 × %d B", got, seg)
	}
	for i := 10201; i <= 10400; i++ {
		s.logTick(int64(i), 1, false)
		if live := len(s.recs) - s.head; live > 64 || len(s.recs) > 2*64 {
			t.Fatalf("after %d ticks: %d records, %d live; want ≤ 128 and ≤ 64", i, len(s.recs), live)
		}
	}
	if s.LogLen() != 64 {
		t.Fatalf("LogLen %d, want 64", s.LogLen())
	}
	checkWindow(t, s, 10400-63)
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
	// At LogCap 1 000 compaction hands the slots of evicted records to the
	// next ticks, and a flush regenerates into the array the last one
	// lent: in steady state logging and flushing allocate nothing but the
	// boxed DataMsg each Send takes.
	f := &copyingFabric{}
	s := New(runtime.NewVirtual(), f, Config{ID: "src", Stream: "s", LogCap: 1000})
	s.handle("dn", node.SubscribeMsg{Stream: "s"})
	next := 1
	op := func() {
		logTicks(s, next, next+9)
		next += 10
		s.flush()
	}
	for i := 0; i < 400; i++ {
		op()
	}
	if a := testing.AllocsPerRun(400, op); a != 1 {
		t.Fatalf("a log-and-flush step allocates %.2f times, want 1 (the boxed DataMsg)", a)
	}
	if len(f.got) != 10 || f.got[0].ID != uint64(next-10) {
		t.Fatalf("last flush sent %v, want ids %d…%d", f.got, next-10, next-1)
	}
	checkWindow(t, s, next-1000)
}

func TestSourceBoundedLogKeepsSentBatchesIntact(t *testing.T) {
	// Later ticks, eviction and compaction must leave every batch already
	// handed out exactly as it was sent, and every batch must hold the
	// tuples logged at its positions.
	for _, logCap := range []int{64, 1124, 0} {
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
		// Flushing every 61 ticks keeps the subscriber inside even the
		// 64-tuple window.
		const n = 3572
		for i := 1; i <= n; i++ {
			s.logTick(int64(i), 1, false)
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
	// A reconnect replay regenerates many ticks into one batch; the batch
	// must equal the logged tuples, and writing into the delivered array
	// must not reach the log.
	sim, net, s, k := setup(Config{})
	subscribe(net, sim, 0)
	s.Disconnect()
	const n = 2560
	logTicks(s, 1, n)
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

func TestSourceUnboundedLogGrowsPerTick(t *testing.T) {
	// An unbounded log costs a record per tick, not a copy of each tuple:
	// 100 000 tuples logged in 1 000 ticks allocate less than a tenth of
	// the tuples' own bytes.
	_, _, s, _ := setup(Config{})
	const ticks, per = 1000, 100
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 1; i <= ticks; i++ {
		s.logTick(int64(i), per, false)
	}
	goruntime.ReadMemStats(&after)
	own := float64(ticks*per) * float64(unsafe.Sizeof(tuple.Tuple{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > own/10 {
		t.Fatalf("%d ticks of %d tuples allocated %.0f B, want ≤ %.0f B", ticks, per, got, own/10)
	}
	if s.LogLen() != ticks*per || len(s.recs) != ticks {
		t.Fatalf("LogLen %d in %d records, want %d in %d", s.LogLen(), len(s.recs), ticks*per, ticks)
	}
	for i, tp := range s.regenerate(nil, 0) {
		if tp.ID != uint64(i+1) || tp.STime != int64(i/per+1) || tp.Field(0) != int64(i+1) {
			t.Fatalf("log[%d] = %v, want id and payload %d at stime %d", i, tp, i+1, i/per+1)
		}
	}
}

func TestSourceBoundedLogPositionsAndReplay(t *testing.T) {
	sim, net, s, k := setup(Config{LogCap: 100})
	// A subscriber that falls behind the horizon resumes at the oldest
	// tuple still logged, gap-free from there.
	subscribe(net, sim, 0)
	s.Disconnect()
	logTicks(s, 1, 1000)
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

// refSource is the source as it stood while its persistent log held the
// tuples themselves: a tick appends its tuples to a plain slice, a full
// capped log drops its oldest tuples before each append, a flush copies
// the log, and a subscription finds FromID by scanning it. It is the
// reference the tick log is checked against.
type refSource struct {
	cfg          Config
	clk          runtime.Clock
	net          fabric.Fabric
	log          []tuple.Tuple // the tuples at positions DroppedLog, DroppedLog+1, …
	subs         map[string]*subscriber
	pending      []tuple.Tuple
	nextID       uint64
	acc          float64
	nextBoundary int64
	disconnected bool
	stallBounds  bool
	Produced     uint64
	DroppedLog   uint64
}

func (r *refSource) Start() {
	r.nextBoundary = r.clk.Now() + r.cfg.BoundaryInterval
	r.clk.NewTicker(r.cfg.TickInterval, r.tick)
}

func (r *refSource) tick() {
	now := r.clk.Now()
	r.acc += r.cfg.Rate * float64(r.cfg.TickInterval) / float64(runtime.Second)
	n := int(r.acc)
	r.acc -= float64(n)
	for i := 0; i < n; i++ {
		r.nextID++
		r.Produced++
		t := tuple.Tuple{Type: tuple.Insertion, ID: r.nextID, STime: now}
		t.SetData(nil, r.cfg.Payload(r.nextID)...)
		r.append(t)
	}
	if !r.stallBounds && now >= r.nextBoundary {
		r.append(tuple.NewBoundary(now))
		for now >= r.nextBoundary {
			r.nextBoundary += r.cfg.BoundaryInterval
		}
	}
	if !r.disconnected {
		r.flush()
	}
}

func (r *refSource) append(t tuple.Tuple) {
	if r.cfg.LogCap > 0 && len(r.log) >= r.cfg.LogCap {
		drop := len(r.log) - r.cfg.LogCap + 1
		r.log = r.log[drop:]
		r.DroppedLog += uint64(drop)
		for _, sub := range r.subs {
			sub.pos = max(sub.pos, r.DroppedLog)
		}
	}
	r.log = append(r.log, t)
}

func (r *refSource) flush() {
	end := r.DroppedLog + uint64(len(r.log))
	lo := end
	for _, sub := range r.subs {
		lo = min(lo, sub.pos)
	}
	if lo == end {
		return
	}
	n := int(end - lo)
	batch := slices.Grow(r.pending[:0], n)[:n]
	copy(batch, r.log[lo-r.DroppedLog:])
	given := cap(batch) > tuple.LoanMaxCap
	eps := make([]string, 0, len(r.subs))
	for ep := range r.subs {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		sub := r.subs[ep]
		if sub.pos >= end {
			continue
		}
		ts := batch[sub.pos-lo : n : n]
		sub.pos = end
		sub.seq++
		r.net.Send(r.cfg.ID, ep, node.DataMsg{Stream: r.cfg.Stream, Seq: sub.seq, Tuples: ts, Given: given})
	}
	if given {
		r.pending = nil
	} else {
		r.pending = batch[:0]
	}
}

func (r *refSource) handle(from string, msg any) {
	switch m := msg.(type) {
	case node.SubscribeMsg:
		pos := r.DroppedLog
		for i := len(r.log) - 1; m.FromID > 0 && i >= 0; i-- {
			if r.log[i].IsData() && r.log[i].ID == m.FromID {
				pos += uint64(i) + 1
				break
			}
		}
		r.subs[from] = &subscriber{pos: pos}
		if !r.disconnected {
			r.flush()
		}
	case node.UnsubscribeMsg:
		delete(r.subs, from)
	}
}

// sent is one DataMsg a recorder saw, its tuples copied at Send.
type sent struct {
	to  string
	msg node.DataMsg
}

// recorder is a stub fabric that keeps every DataMsg sent through it.
type recorder struct{ sent []sent }

func (f *recorder) Register(string, fabric.Handler) {}
func (f *recorder) SetDown(string, bool)            {}
func (f *recorder) Send(_, to string, msg any) {
	if m, ok := msg.(node.DataMsg); ok {
		m.Tuples = slices.Clone(m.Tuples)
		f.sent = append(f.sent, sent{to, m})
	}
}

// refPair runs a source and the reference side by side on one clock, each
// sending to its own recorder, and applies every operation to both.
type refPair struct {
	sim       *runtime.VirtualClock
	s         *Source
	ref       *refSource
	got, want recorder
}

func newRefPair(cfg Config) *refPair {
	p := &refPair{sim: runtime.NewVirtual()}
	cfg.ID, cfg.Stream = "src", "s"
	p.s = New(p.sim, &p.got, cfg)
	p.ref = &refSource{cfg: p.s.cfg, clk: p.sim, net: &p.want, subs: make(map[string]*subscriber)}
	p.s.Start()
	p.ref.Start()
	return p
}

func (p *refPair) run(ticks int) { p.sim.RunFor(int64(ticks) * p.s.cfg.TickInterval) }

func (p *refPair) subscribe(ep string, from uint64) {
	p.s.handle(ep, node.SubscribeMsg{Stream: "s", FromID: from})
	p.ref.handle(ep, node.SubscribeMsg{Stream: "s", FromID: from})
}

func (p *refPair) unsubscribe(ep string) {
	p.s.handle(ep, node.UnsubscribeMsg{Stream: "s"})
	p.ref.handle(ep, node.UnsubscribeMsg{Stream: "s"})
}

func (p *refPair) setRate(r float64) { p.s.SetRate(r); p.ref.cfg.Rate = r }

func (p *refPair) connect(up bool) {
	if up {
		p.s.Reconnect()
	} else {
		p.s.Disconnect()
	}
	p.ref.disconnected = !up
}

func (p *refPair) stall(on bool) {
	if on {
		p.s.StallBoundaries()
	} else {
		p.s.ResumeBoundaries()
	}
	p.ref.stallBounds = on
}

// check fails unless the source sent exactly what the reference sent since
// the last check, tuple for tuple, and agrees on its log's counters.
func (p *refPair) check(t *testing.T, what string) {
	t.Helper()
	got, want := p.got.sent, p.want.sent
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) {
			t.Fatalf("%s: %d messages sent, reference %d", what, len(got), len(want))
		}
		g, w := got[i], want[i]
		if g.to != w.to || g.msg.Stream != w.msg.Stream || g.msg.Seq != w.msg.Seq || g.msg.Given != w.msg.Given ||
			len(g.msg.Tuples) != len(w.msg.Tuples) {
			t.Fatalf("%s: message %d to %s seq %d given %v with %d tuples, reference to %s seq %d given %v with %d",
				what, i, g.to, g.msg.Seq, g.msg.Given, len(g.msg.Tuples), w.to, w.msg.Seq, w.msg.Given, len(w.msg.Tuples))
		}
		for j := range g.msg.Tuples {
			if !tuple.Equal(g.msg.Tuples[j], w.msg.Tuples[j]) {
				t.Fatalf("%s: message %d slot %d = %v, reference %v", what, i, j, g.msg.Tuples[j], w.msg.Tuples[j])
			}
		}
	}
	p.got.sent, p.want.sent = p.got.sent[:0], p.want.sent[:0]
	if s, r := p.s, p.ref; s.LogLen() != len(r.log) || s.DroppedLog != r.DroppedLog || s.Produced != r.Produced {
		t.Fatalf("%s: LogLen %d, DroppedLog %d, Produced %d; reference %d, %d, %d",
			what, s.LogLen(), s.DroppedLog, s.Produced, len(r.log), r.DroppedLog, r.Produced)
	}
}

// longPayload is a pure payload of three values, carved from the source's
// arena rather than kept inline.
func longPayload(seq uint64) []int64 { return []int64{int64(seq), 3 * int64(seq), -int64(seq)} }

func TestSourceMatchesTupleLogReference(t *testing.T) {
	// 10 tuples a tick and a boundary after every tenth tick's data; the
	// caps put the horizon inside one tick, a few ticks back, and past the
	// whole run.
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"unbounded", Config{Rate: 1000}},
		{"cap-below-a-tick", Config{Rate: 1000, LogCap: 7}},
		{"cap-64", Config{Rate: 1000, LogCap: 64}},
		{"cap-150-long-payload", Config{Rate: 1000, LogCap: 150, Payload: longPayload}},
		{"unbounded-long-payload", Config{Rate: 1000, Payload: longPayload}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newRefPair(c.cfg)
			p.subscribe("a", 0)
			p.run(25)
			p.check(t, "steady")
			// Ticks without data: 0.3 tuples a tick, then boundaries alone.
			p.setRate(30)
			p.run(20)
			p.setRate(0)
			p.run(5)
			p.setRate(1000)
			p.run(3)
			p.check(t, "sparse ticks")
			p.stall(true)
			p.run(15)
			p.stall(false)
			p.run(5)
			p.check(t, "stalled boundaries")
			p.connect(false)
			p.run(30)
			p.subscribe("b", p.s.Produced-45)
			p.connect(true)
			p.run(1)
			p.check(t, "reconnect")
			// A replay from every id: each tick's first tuple, every
			// mid-tick one, those next to a boundary, evicted ones, and
			// ids not produced yet.
			for id := uint64(0); id <= p.s.Produced+3; id++ {
				p.subscribe("r", id)
				p.check(t, fmt.Sprintf("replay from id %d", id))
				p.unsubscribe("r")
			}
			// A replay past tuple.LoanMaxCap is given away.
			p.setRate(200000)
			p.connect(false)
			p.run(10)
			p.connect(true)
			p.run(1)
			if last := p.got.sent[len(p.got.sent)-1].msg; c.cfg.LogCap == 0 && !last.Given {
				t.Fatalf("a replay of %d tuples was lent, want given", len(last.Tuples))
			}
			p.check(t, "long replay")
			p.unsubscribe("a")
			p.run(3)
			p.check(t, "unsubscribed")
		})
	}
}

// FuzzSourceMatchesTupleLogReference drives a source and the reference
// through the same operations: ticks, subscriptions from ids around the
// newest, unsubscriptions, disconnection, rate changes and boundary
// stalls, under a cap chosen by the first byte.
func FuzzSourceMatchesTupleLogReference(f *testing.F) {
	f.Add([]byte{0, 0, 8, 1, 16, 3, 32, 4, 9, 17, 41})
	f.Add([]byte{2, 3, 1, 16, 5, 8, 6, 24, 7, 33, 0, 0, 0, 2, 97})
	f.Add([]byte{1, 1, 1, 9, 17, 3, 8, 13, 21, 4, 249, 0, 6, 16, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 || len(ops) > 200 {
			return
		}
		caps := []int{0, 1, 7, 64, 300}
		rates := []float64{0, 30, 1000, 2500, 200000}
		eps := []string{"a", "b", "c"}
		cfg := Config{Rate: 1000, LogCap: caps[int(ops[0])%len(caps)], BoundaryInterval: 30 * ms}
		if ops[1]&1 != 0 {
			cfg.BoundaryInterval = 100 * ms
		}
		if ops[1]&2 != 0 {
			cfg.Payload = longPayload
		}
		p := newRefPair(cfg)
		for i, b := range ops[2:] {
			arg := int(b >> 3)
			switch b % 8 {
			case 0:
				p.run(1 + arg%8)
			case 1:
				// ids from the newest + 4 (not produced) back 27 (evicted
				// under a small cap), and 0
				p.subscribe(eps[arg%3], uint64(max(0, int(p.s.Produced)+4-arg)))
			case 2:
				p.unsubscribe(eps[arg%3])
			case 3:
				p.connect(false)
			case 4:
				p.connect(true)
			case 5:
				p.setRate(rates[arg%len(rates)])
			case 6:
				p.stall(true)
			case 7:
				p.stall(false)
			}
			p.check(t, fmt.Sprintf("op %d (%d)", i, b))
		}
	})
}
