// Package source implements DPC-speaking data sources (§2.2): they
// timestamp every tuple they produce, emit periodic boundary tuples that
// double as punctuation and heartbeats (§4.2.1), log everything they ever
// produced in a persistent log, and replay missed suffixes to subscribers
// that reconnect or fall behind — including after the source-side failures
// the experiments inject (disconnection, boundary stalls).
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
	// the default is [seq]. The source copies the values into the tuple,
	// so Payload may return the same slice every call.
	Payload func(seq uint64) []int64
	// LogCap bounds the persistent log (0 = unbounded). When the log is
	// full, the oldest entries are dropped and DroppedLog counts them —
	// the "sources start dropping tuples" end state of §8.1.
	LogCap int
}

type subscriber struct {
	pos int // log position of the next tuple to send
	seq uint64
}

// Source is a data source endpoint on the simulated network.
type Source struct {
	cfg Config
	clk runtime.Clock
	net fabric.Fabric

	// The persistent log, addressed by position: the i-th tuple ever
	// logged is at position i, and position p at log index p − DroppedLog.
	// segs takes back the segments eviction empties and lends them to the
	// next appends.
	log  node.TupleLog
	segs tuple.LoanPool
	subs map[string]*subscriber
	// pending is the array flushes copy the log into and lend to the
	// fabric, which copies it during Send; one grown past
	// tuple.LoanMaxCap (a reconnect replay) is given away instead.
	pending []tuple.Tuple
	// subsSorted caches the deterministic flush order; rebuilt when the
	// subscription set changes.
	subsSorted []string
	// streams is every keep-alive response's map of stream states: the
	// one stream, always STABLE. Receivers only read it.
	streams map[string]node.StreamState

	nextID       uint64
	seq          uint64
	acc          float64
	nextBoundary int64

	disconnected bool
	stallBounds  bool

	ticker runtime.Ticker

	// Produced counts data tuples generated; DroppedLog counts tuples
	// evicted from a bounded log.
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
	s.log = node.NewTupleLog(cfg.LogCap, &s.segs)
	net.Register(cfg.ID, s.handle)
	return s
}

// ID returns the source's endpoint identifier.
func (s *Source) ID() string { return s.cfg.ID }

// Stream returns the produced stream name.
func (s *Source) Stream() string { return s.cfg.Stream }

// LogLen returns the persistent log length.
func (s *Source) LogLen() int { return s.log.Len() }

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
	for i := 0; i < n; i++ {
		s.nextID++
		s.seq++
		s.Produced++
		t := tuple.Tuple{Type: tuple.Insertion, ID: s.nextID, STime: now}
		t.SetData(nil, s.cfg.Payload(s.seq)...)
		s.append(t)
	}
	if !s.stallBounds && now >= s.nextBoundary {
		s.append(tuple.NewBoundary(now))
		for now >= s.nextBoundary {
			s.nextBoundary += s.cfg.BoundaryInterval
		}
	}
	if !s.disconnected {
		s.flush()
	}
}

// append adds a tuple to the persistent log, evicting under LogCap.
// Eviction recycles the segments it empties: nothing outside the log holds
// them, because flush copies what it sends.
func (s *Source) append(t tuple.Tuple) {
	if s.cfg.LogCap > 0 && s.LogLen() >= s.cfg.LogCap {
		drop := s.LogLen() - s.cfg.LogCap + 1
		s.log.DropHead(drop)
		s.DroppedLog += uint64(drop)
		for _, sub := range s.subs {
			sub.pos = max(sub.pos, int(s.DroppedLog))
		}
	}
	s.log.Append(t)
}

// flush sends each subscriber everything it has not yet received, in
// deterministic (sorted endpoint) order. The tuples from the oldest
// subscriber position on are copied into pending once; each subscriber gets
// its suffix of it.
func (s *Source) flush() {
	base := int(s.DroppedLog)
	end := base + s.LogLen()
	lo := end
	for _, sub := range s.subs {
		lo = min(lo, sub.pos)
	}
	if lo == end {
		return
	}
	n := end - lo
	batch := slices.Grow(s.pending[:0], n)[:n]
	s.log.CopyOut(batch, lo-base)
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
		if sub.pos >= end {
			continue
		}
		ts := batch[sub.pos-lo : n : n]
		sub.pos = end
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
		pos := int(s.DroppedLog)
		if m.FromID > 0 {
			pos += 1 + s.log.LastIndex(func(t *tuple.Tuple) bool { return t.IsData() && t.ID == m.FromID })
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
