// Package source implements DPC-speaking data sources (§2.2): they
// timestamp every tuple they produce, emit periodic boundary tuples that
// double as punctuation and heartbeats (§4.2.1), log everything they ever
// produced in a persistent log, and replay missed suffixes to subscribers
// that reconnect or fall behind — including after the source-side failures
// the experiments inject (disconnection, boundary stalls). The log holds a
// record per tick, not the tuples: a tuple is a pure function of its tick
// and its sequence number, so every flush and replay regenerates it.
package source

import (
	"slices"
	"sort"

	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Config parameterizes a source.
type Config struct {
	// ID is the network endpoint; Stream names the produced stream.
	ID, Stream string
	// Rate is the production rate in tuples per second.
	Rate float64
	// TickInterval batches production (default 10 ms): each tick emits
	// Rate·TickInterval tuples stamped with the current virtual time.
	TickInterval int64
	// BoundaryInterval spaces boundary tuples (default 100 ms).
	BoundaryInterval int64
	// Payload builds a tuple's data fields from its sequence number;
	// the default is [seq]. It must be a pure function of seq: the log
	// keeps no tuples, so every flush and replay calls it again for the
	// tuples it sends. The source copies the values into the tuple, so
	// Payload may return the same slice every call.
	Payload func(seq uint64) []int64
	// LogCap bounds the persistent log (0 = unbounded). When the log is
	// full, the oldest entries are dropped and DroppedLog counts them —
	// the "sources start dropping tuples" end state of §8.1.
	LogCap int
}

type subscriber struct {
	pos uint64 // log position of the next tuple to send
	seq uint64
}

// tickRec is one tick's entry in the persistent log: n data tuples with ids
// seq, seq+1, … stamped stime, then a boundary tuple if bound, at the log
// positions from pos on.
type tickRec struct {
	pos, seq uint64
	stime    int64
	n        uint32
	bound    bool
}

// end returns the log position after the tick's last tuple.
func (r *tickRec) end() uint64 {
	e := r.pos + uint64(r.n)
	if r.bound {
		e++
	}
	return e
}

// Source is a data source endpoint on the simulated network.
type Source struct {
	cfg Config
	clk runtime.Clock
	net fabric.Fabric

	// The persistent log, addressed by position: the i-th tuple ever
	// logged is at position i, and end is the position after the last.
	// recs[head:] are the records of the ticks still logged, the first of
	// which may start below DroppedLog; eviction advances head, and
	// compacts the slice once the dead records outnumber the live ones.
	recs []tickRec
	head int
	end  uint64
	subs map[string]*subscriber
	// pending is the array flushes regenerate the log into and lend to
	// the fabric, which copies it during Send; one grown past
	// tuple.LoanMaxCap (a reconnect replay) is given away instead. arena
	// carves the payloads longer than two values: they are published with
	// the tuples and never written again.
	pending []tuple.Tuple
	arena   tuple.I64Arena
	// subsSorted caches the deterministic flush order; rebuilt when the
	// subscription set changes.
	subsSorted []string
	// streams is every keep-alive response's map of stream states: the
	// one stream, always STABLE. Receivers only read it.
	streams map[string]node.StreamState

	acc          float64
	nextBoundary int64

	disconnected bool
	stallBounds  bool

	ticker runtime.Ticker

	// Produced counts data tuples generated, the last of which has
	// sequence number and id Produced; DroppedLog counts tuples (log
	// positions) evicted from a bounded log.
	Produced   uint64
	DroppedLog uint64
}

// New builds a source and registers its endpoint. Call Start to begin
// producing.
func New(clk runtime.Clock, net fabric.Fabric, cfg Config) *Source {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * runtime.Millisecond
	}
	if cfg.BoundaryInterval <= 0 {
		cfg.BoundaryInterval = 100 * runtime.Millisecond
	}
	if cfg.Payload == nil {
		var p [1]int64
		cfg.Payload = func(seq uint64) []int64 {
			p[0] = int64(seq)
			return p[:]
		}
	}
	s := &Source{cfg: cfg, clk: clk, net: net, subs: make(map[string]*subscriber),
		streams: map[string]node.StreamState{cfg.Stream: node.StateStable}}
	net.Register(cfg.ID, s.handle)
	return s
}

// ID returns the source's endpoint identifier.
func (s *Source) ID() string { return s.cfg.ID }

// Stream returns the produced stream name.
func (s *Source) Stream() string { return s.cfg.Stream }

// LogLen returns the persistent log length.
func (s *Source) LogLen() int { return int(s.end - s.DroppedLog) }

// Start begins ticking.
func (s *Source) Start() {
	s.nextBoundary = s.clk.Now() + s.cfg.BoundaryInterval
	s.ticker = s.clk.NewTicker(s.cfg.TickInterval, s.tick)
}

// SetRate changes the production rate in tuples/second, effective from the
// next tick. Workload shapes (bursts, ramps) are driven through this.
func (s *Source) SetRate(r float64) {
	if r < 0 {
		r = 0
	}
	s.cfg.Rate = r
}

// Rate returns the current production rate.
func (s *Source) Rate() float64 { return s.cfg.Rate }

// Stop halts production permanently (fail-stop of a data source).
func (s *Source) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// Disconnect stops transmissions while production and logging continue:
// the Table III failure mode ("temporarily disconnecting one of the input
// streams without stopping the data source").
func (s *Source) Disconnect() { s.disconnected = true }

// Reconnect resumes transmissions; each subscriber receives the entire
// missed suffix (the source "replays all missing tuples while continuing
// to produce new tuples").
func (s *Source) Reconnect() { s.disconnected = false }

// StallBoundaries keeps data flowing but stops boundary production: the
// Fig. 15/16 failure mode, which leaves the downstream output rate intact
// while preventing buckets from stabilizing.
func (s *Source) StallBoundaries() { s.stallBounds = true }

// ResumeBoundaries re-enables boundary production.
func (s *Source) ResumeBoundaries() { s.stallBounds = false }

// tick produces this interval's tuples and flushes subscribers.
func (s *Source) tick() {
	now := s.clk.Now()
	s.acc += s.cfg.Rate * float64(s.cfg.TickInterval) / float64(runtime.Second)
	n := int(s.acc)
	s.acc -= float64(n)
	bound := !s.stallBounds && now >= s.nextBoundary
	if bound {
		for now >= s.nextBoundary {
			s.nextBoundary += s.cfg.BoundaryInterval
		}
	}
	s.logTick(now, n, bound)
	if !s.disconnected {
		s.flush()
	}
}

// logTick appends a tick of n data tuples stamped stime, followed by a
// boundary if bound, to the persistent log, evicting under LogCap.
func (s *Source) logTick(stime int64, n int, bound bool) {
	r := tickRec{pos: s.end, seq: s.Produced + 1, stime: stime, n: uint32(n), bound: bound}
	if r.end() == r.pos {
		return
	}
	s.Produced += uint64(n)
	s.end = r.end()
	s.recs = append(s.recs, r)
	if s.cfg.LogCap > 0 && s.LogLen() > s.cfg.LogCap {
		s.evict(s.end - uint64(s.cfg.LogCap))
	}
}

// evict drops the log positions below p. Whole head records go; the first
// record left may keep only a suffix of its tuples.
func (s *Source) evict(p uint64) {
	s.DroppedLog = p
	for s.recs[s.head].end() <= p {
		s.head++
	}
	if s.head >= len(s.recs)-s.head {
		s.recs = s.recs[:copy(s.recs, s.recs[s.head:])]
		s.head = 0
	}
	for _, sub := range s.subs {
		sub.pos = max(sub.pos, p)
	}
}

// regenerate appends to ts the logged tuples from position lo, which must
// not be below DroppedLog, to the end of the log.
func (s *Source) regenerate(ts []tuple.Tuple, lo uint64) []tuple.Tuple {
	live := s.recs[s.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i].end() > lo })
	for _, r := range live[i:] {
		for k := max(lo, r.pos) - r.pos; k < uint64(r.n); k++ {
			t := tuple.Tuple{Type: tuple.Insertion, ID: r.seq + k, STime: r.stime}
			t.SetData(&s.arena, s.cfg.Payload(r.seq+k)...)
			ts = append(ts, t)
		}
		if r.bound {
			ts = append(ts, tuple.NewBoundary(r.stime))
		}
	}
	return ts
}

// position returns the log position of the data tuple with the given id,
// and whether the log still holds it.
func (s *Source) position(id uint64) (uint64, bool) {
	live := s.recs[s.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i].seq+uint64(live[i].n) > id })
	if i == len(live) || live[i].seq > id {
		return 0, false
	}
	p := live[i].pos + (id - live[i].seq)
	return p, p >= s.DroppedLog
}

// flush sends each subscriber everything it has not yet received, in
// deterministic (sorted endpoint) order. The tuples from the oldest
// subscriber position on are regenerated into pending once; each
// subscriber gets its suffix of it.
func (s *Source) flush() {
	lo := s.end
	for _, sub := range s.subs {
		lo = min(lo, sub.pos)
	}
	if lo == s.end {
		return
	}
	n := int(s.end - lo)
	batch := s.regenerate(slices.Grow(s.pending[:0], n), lo)
	given := cap(batch) > tuple.LoanMaxCap
	if s.subsSorted == nil && len(s.subs) > 0 {
		eps := make([]string, 0, len(s.subs))
		for ep := range s.subs {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		s.subsSorted = eps
	}
	for _, ep := range s.subsSorted {
		sub := s.subs[ep]
		if sub.pos >= s.end {
			continue
		}
		ts := batch[sub.pos-lo : n : n]
		sub.pos = s.end
		sub.seq++
		s.net.Send(s.cfg.ID, ep, node.DataMsg{Stream: s.cfg.Stream, Seq: sub.seq, Tuples: ts, Given: given})
	}
	if given {
		s.pending = nil
	} else {
		s.pending = batch[:0]
	}
}

// handle serves the DPC protocol: subscriptions with replay-from-id,
// acknowledgments, and keep-alives (a source is always STABLE — stream
// failures are injected at the transmission layer, not advertised).
func (s *Source) handle(from string, msg any) {
	switch m := msg.(type) {
	case node.SubscribeMsg:
		if m.Stream != s.cfg.Stream {
			return
		}
		// FromID 0, or an id the log does not hold (evicted, or never
		// produced), replays everything logged.
		pos := s.DroppedLog
		if p, ok := s.position(m.FromID); ok {
			pos = p + 1
		}
		s.subs[from] = &subscriber{pos: pos}
		s.subsSorted = nil
		if !s.disconnected {
			s.flush()
		}
	case node.UnsubscribeMsg:
		delete(s.subs, from)
		s.subsSorted = nil
	case node.AckMsg:
		// Sources log persistently; acks need no truncation action.
	case node.KeepAliveReq:
		s.net.Send(s.cfg.ID, from, node.KeepAliveResp{Node: node.StateStable, Streams: s.streams})
	}
}
