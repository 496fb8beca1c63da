// Package source implements DPC-speaking data sources (§2.2): they
// timestamp every tuple they produce, emit periodic boundary tuples that
// double as punctuation and heartbeats (§4.2.1), log everything they ever
// produced in a persistent log, and replay missed suffixes to subscribers
// that reconnect or fall behind — including after the source-side failures
// the experiments inject (disconnection, boundary stalls).
package source

import (
	"math/bits"
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
	pos    int // log position of the next tuple to send
	seq    uint64
	paused bool
}

// Source is a data source endpoint on the simulated network.
type Source struct {
	cfg Config
	clk runtime.Clock
	net fabric.Fabric

	// The persistent log, addressed by position: the i-th tuple ever
	// logged is at position i. Live positions are [logBase, logEnd); they
	// sit in segs, fixed arrays of 1<<segShift tuples, with position
	// segBase at segs[0][0].
	segs     [][]tuple.Tuple
	segShift uint
	segBase  int
	logBase  int
	logEnd   int
	subs     map[string]*subscriber
	// subsSorted caches the deterministic flush order; rebuilt when the
	// subscription set changes.
	subsSorted []string

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
	segLen := logSegment
	if cfg.LogCap > 0 && cfg.LogCap < segLen {
		segLen = cfg.LogCap
	}
	s := &Source{cfg: cfg, clk: clk, net: net, subs: make(map[string]*subscriber),
		segShift: uint(bits.Len(uint(segLen - 1)))}
	net.Register(cfg.ID, s.handle)
	return s
}

// ID returns the source's endpoint identifier.
func (s *Source) ID() string { return s.cfg.ID }

// Stream returns the produced stream name.
func (s *Source) Stream() string { return s.cfg.Stream }

// LogLen returns the persistent log length.
func (s *Source) LogLen() int { return s.logEnd - s.logBase }

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

// logSegment is the tuple count of one persistent-log segment. A log
// bounded below it uses the smallest power of two that holds LogCap, so a
// small bounded source keeps a small log.
const logSegment = 4096

// seg splits log position i into its segment and its offset there.
func (s *Source) seg(i int) (int, int) {
	i -= s.segBase
	return i >> s.segShift, i & (1<<s.segShift - 1)
}

// at returns the tuple at live log position i.
func (s *Source) at(i int) tuple.Tuple {
	g, o := s.seg(i)
	return s.segs[g][o]
}

// append adds a tuple to the persistent log, evicting under LogCap. The
// log grows a segment at a time and never recopies, and a written slot is
// never written again. Eviction moves the log's start past a dead prefix in
// O(1) and releases segments once they hold no live tuple; their contents
// stay untouched, because batches already handed to flush may alias them.
func (s *Source) append(t tuple.Tuple) {
	if s.cfg.LogCap > 0 && s.LogLen() >= s.cfg.LogCap {
		drop := s.LogLen() - s.cfg.LogCap + 1
		s.logBase += drop
		s.DroppedLog += uint64(drop)
		for _, sub := range s.subs {
			if sub.pos < s.logBase {
				sub.pos = s.logBase
			}
		}
		for s.logBase-s.segBase >= 1<<s.segShift {
			s.segs[0] = nil
			s.segs = s.segs[1:]
			s.segBase += 1 << s.segShift
		}
	}
	g, o := s.seg(s.logEnd)
	if g == len(s.segs) {
		s.segs = append(s.segs, make([]tuple.Tuple, 1<<s.segShift))
	}
	s.segs[g][o] = t
	s.logEnd++
}

// span returns the logged tuples at positions [lo, hi), an array flush
// gives away (DataMsg.Given). A range inside one segment is aliased — its
// slots are never written again, and the capacity is clipped so the
// receiver cannot append into the slots after it. A range crossing segments
// (a reconnect replay, or a tick's batch straddling a boundary) is copied
// into a fresh array.
func (s *Source) span(lo, hi int) []tuple.Tuple {
	ga, oa := s.seg(lo)
	gb, ob := s.seg(hi - 1)
	if ga == gb {
		return s.segs[ga][oa : ob+1 : ob+1]
	}
	out := make([]tuple.Tuple, 0, hi-lo)
	out = append(out, s.segs[ga][oa:]...)
	for g := ga + 1; g < gb; g++ {
		out = append(out, s.segs[g]...)
	}
	return append(out, s.segs[gb][:ob+1]...)
}

// flush sends each subscriber everything it has not yet received, in
// deterministic (sorted endpoint) order.
func (s *Source) flush() {
	end := s.logEnd
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
		if sub.paused || sub.pos >= end {
			continue
		}
		batch := s.span(sub.pos, end)
		sub.pos = end
		sub.seq++
		s.net.Send(s.cfg.ID, ep, node.DataMsg{Stream: s.cfg.Stream, Seq: sub.seq, Tuples: batch, Given: true})
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
		pos := s.logBase
		if m.FromID > 0 {
			for i := s.logEnd - 1; i >= s.logBase; i-- {
				if t := s.at(i); t.IsData() && t.ID == m.FromID {
					pos = i + 1
					break
				}
			}
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
		s.net.Send(s.cfg.ID, from, node.KeepAliveResp{
			Node:    node.StateStable,
			Streams: map[string]node.StreamState{s.cfg.Stream: node.StateStable},
		})
	}
}
