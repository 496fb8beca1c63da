package node

import (
	"sort"

	"borealis/internal/fabric"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// BufferMode selects what an output buffer does when it reaches capacity
// (§8.1).
type BufferMode uint8

const (
	// BufferUnbounded never truncates except on acknowledgments.
	BufferUnbounded BufferMode = iota
	// BufferBlock stops the node from producing once full: back-pressure
	// propagates to the sources, preserving eventual consistency for
	// arbitrary deterministic operators at the cost of availability.
	BufferBlock
	// BufferSlide drops the oldest tuples once full: safe for
	// convergent-capable diagrams, where any input affects state for a
	// bounded time and only a recent window of output needs correcting.
	BufferSlide
)

// OutputBuffer is the Data Path's per-output-stream buffer. It retains, in
// emission order, every data tuple (stable and tentative) and interleaved
// boundary, so that any replica of any downstream neighbor can subscribe at
// any moment and be caught up from its last stable tuple (§4.3, Fig. 8).
// When the local diagram emits an UNDO, the buffer compacts: the revoked
// tentative suffix is deleted, so replays always reflect the corrected
// stream.
type OutputBuffer struct {
	net    fabric.Fabric
	self   string
	stream string
	mode   BufferMode
	cap    int

	// The contents are a segmented log: appending never recopies, however
	// long an unacknowledged buffer grows, and truncation (acks, slide mode,
	// undo) recycles every segment it empties, so an acknowledged buffer in
	// steady state allocates nothing and holds no more than its own
	// high-water mark.
	segLog
	subs map[string]*obSub

	// acks maps downstream endpoints to the highest stable tuple id they
	// acknowledged; truncation keeps everything after the minimum over
	// the expected set.
	acks     map[string]uint64
	expected []string

	// pending batches emissions of the same instant into one DataMsg.
	// flush hands the filled slice to the network layer, where it is
	// shared by every subscriber's in-flight message, so each flush starts
	// a fresh array, sized by what the instant actually publishes.
	pending    []tuple.Tuple
	flushTimer runtime.Timer
	flushFn    func() // bound once; scheduling a flush allocates no closure
	clk        runtime.Clock
	// subsSorted caches Subscribers() for the flush hot path; it is
	// rebuilt whenever the subscription set changes.
	subsSorted []string

	// Truncated counts tuples dropped from the head; Blocked reports
	// whether a full BufferBlock buffer is exerting back-pressure.
	Truncated uint64
	Blocked   bool
}

// obSub is one subscription's send state.
type obSub struct {
	seq uint64
}

// NewOutputBuffer builds a buffer for one output stream of endpoint self.
// The log's first segment is made on the first append.
func NewOutputBuffer(clk runtime.Clock, net fabric.Fabric, self, stream string, mode BufferMode, capTuples int, expected []string) *OutputBuffer {
	ob := &OutputBuffer{
		net:      net,
		self:     self,
		stream:   stream,
		mode:     mode,
		cap:      capTuples,
		clk:      clk,
		subs:     make(map[string]*obSub),
		acks:     make(map[string]uint64),
		expected: append([]string(nil), expected...),
	}
	ob.flushFn = ob.flush
	return ob
}

// Len returns the number of buffered tuples.
func (ob *OutputBuffer) Len() int { return ob.n }

// drop discards the k oldest live tuples, counting them as truncated.
func (ob *OutputBuffer) drop(k int) {
	ob.dropHead(k)
	ob.Truncated += uint64(k)
}

// Reset clears the buffer, subscriptions, and acknowledgments: crash
// recovery (§4.5) starts the stream over — buffers are volatile (§2.2) and
// pre-crash subscribers must re-subscribe (their sequence tracking detects
// the reset).
func (ob *OutputBuffer) Reset() {
	ob.segLog = segLog{}
	ob.subs = make(map[string]*obSub)
	ob.subsSorted = nil
	ob.acks = make(map[string]uint64)
	ob.pending = nil
	if ob.flushTimer != nil {
		ob.flushTimer.Stop()
		ob.flushTimer = nil
	}
	ob.Blocked = false
}

// Subscribers returns the active subscriber endpoints, sorted. The result
// is cached; callers must not modify it.
func (ob *OutputBuffer) Subscribers() []string {
	if ob.subsSorted == nil && len(ob.subs) > 0 {
		out := make([]string, 0, len(ob.subs))
		for s := range ob.subs {
			out = append(out, s)
		}
		sort.Strings(out)
		ob.subsSorted = out
	}
	return ob.subsSorted
}

// Publish handles one tuple emitted by the local diagram on this stream:
// it is buffered (data and boundaries), compacts on undo, and is forwarded
// to every subscriber. Publish reports false when a BufferBlock buffer is
// full — the caller must stop producing (back-pressure).
func (ob *OutputBuffer) Publish(t tuple.Tuple) bool {
	switch {
	case t.IsData(), t.Type == tuple.Boundary:
		if ob.cap > 0 && ob.n >= ob.cap {
			switch ob.mode {
			case BufferBlock:
				ob.Blocked = true
				return false
			case BufferSlide:
				ob.drop(ob.n - ob.cap + 1)
			}
		}
		ob.push(t)
	case t.Type == tuple.Undo:
		// Compact: delete the revoked tentative suffix. Replays from
		// now on reflect the corrected stream; live subscribers get
		// the undo itself.
		ob.undo(t.ID)
	case t.Type == tuple.RecDone:
		// Not buffered: a late subscriber sees only corrected data.
	}
	ob.send(t)
	return true
}

// PublishBatch handles a whole batch emitted by the staged data plane in
// one call, reporting false when any tuple hit BufferBlock back-pressure.
// When the batch is pure data/boundary traffic and fits without touching
// the capacity limit, the buffer append and the subscriber send are done
// in bulk — one pending-append and at most one flush-timer arm for the
// whole batch, which per-tuple Publish calls would also have produced
// (the timer only ever arms once per instant), so the paths are exactly
// equivalent. Anything else — undo compaction, capacity pressure —
// takes the per-tuple loop.
func (ob *OutputBuffer) PublishBatch(ts []tuple.Tuple) bool {
	bulk := ob.cap <= 0 || ob.n+len(ts) <= ob.cap
	if bulk {
		for i := range ts {
			if !ts[i].IsData() && ts[i].Type != tuple.Boundary {
				bulk = false
				break
			}
		}
	}
	if !bulk {
		ok := true
		for i := range ts {
			if !ob.Publish(ts[i]) {
				ok = false
			}
		}
		return ok
	}
	ob.pushAll(ts)
	if len(ob.subs) > 0 {
		if ob.pending == nil {
			// The first bulk publish of an instant sizes the message
			// array exactly: usually it carries the whole flush (a long
			// replay arrives in several, one per staged pass).
			ob.pending = make([]tuple.Tuple, 0, len(ts))
		}
		ob.pending = append(ob.pending, ts...)
		if ob.flushTimer == nil {
			ob.flushTimer = ob.clk.After(0, ob.flushFn)
		}
	}
	return true
}

// send queues the tuple for delivery to all subscribers, coalescing
// same-instant emissions into one network message per subscriber. Each
// instant's array grows from empty: presizing it from earlier flushes would
// make every one-tuple flush after a long replay allocate the replay's size.
func (ob *OutputBuffer) send(t tuple.Tuple) {
	if len(ob.subs) == 0 {
		return
	}
	ob.pending = append(ob.pending, t)
	if ob.flushTimer == nil {
		ob.flushTimer = ob.clk.After(0, ob.flushFn)
	}
}

func (ob *OutputBuffer) flush() {
	ob.flushTimer = nil
	if len(ob.pending) == 0 {
		return
	}
	batch := ob.pending
	ob.pending = nil
	for _, ep := range ob.Subscribers() {
		sub := ob.subs[ep]
		sub.seq++
		ob.net.Send(ob.self, ep, DataMsg{Stream: ob.stream, Seq: sub.seq, Tuples: batch})
	}
}

// Subscribe registers a downstream endpoint and replays the buffer from
// its last stable tuple (§4.3, Fig. 8): if the subscriber saw tentative
// tuples after FromID, an UNDO precedes the replay. Each subscription
// restarts the batch sequence at 1.
func (ob *OutputBuffer) Subscribe(from string, msg SubscribeMsg) {
	sub := &obSub{}
	ob.subs[from] = sub
	ob.subsSorted = nil
	if msg.TailOnly {
		return
	}
	var replay []tuple.Tuple
	if msg.SeenTentative {
		replay = append(replay, tuple.NewUndo(msg.FromID))
	}
	replay = append(replay, ob.after(msg.FromID)...)
	if len(replay) > 0 {
		sub.seq++
		ob.net.Send(ob.self, from, DataMsg{Stream: ob.stream, Seq: sub.seq, Tuples: replay})
	}
}

// after returns the buffered suffix following the data tuple with the given
// id (everything, if id is 0 or unknown because it was truncated).
func (ob *OutputBuffer) after(id uint64) []tuple.Tuple {
	start := 0
	if id > 0 {
		for i := ob.n - 1; i >= 0; i-- {
			if t := ob.at(i); t.IsData() && t.ID == id {
				start = i + 1
				break
			}
		}
	}
	out := make([]tuple.Tuple, ob.n-start)
	ob.copyOut(out, start)
	return out
}

// Unsubscribe removes a subscriber.
func (ob *OutputBuffer) Unsubscribe(from string) {
	delete(ob.subs, from)
	ob.subsSorted = nil
}

// Ack records a downstream acknowledgment and truncates the buffer to the
// suffix someone might still need: everything after the minimum
// acknowledged stable tuple across all *expected* downstream endpoints
// (§8.1: a node buffers its output until all replicas of all downstream
// neighbors received it). Without an expected set, acks are recorded but
// nothing is truncated.
func (ob *OutputBuffer) Ack(from string, upTo uint64) {
	if upTo > ob.acks[from] {
		ob.acks[from] = upTo
	}
	if len(ob.expected) == 0 {
		return
	}
	min := uint64(0)
	for i, ep := range ob.expected {
		a := ob.acks[ep]
		if i == 0 || a < min {
			min = a
		}
	}
	if min == 0 {
		return
	}
	cut := 0
	for i := 0; i < ob.n; i++ {
		t := ob.at(i)
		if t.IsData() && t.ID <= min && t.Type == tuple.Insertion {
			cut = i + 1
		}
		if t.IsData() && t.ID > min {
			break
		}
	}
	if cut > 0 {
		ob.drop(cut)
		if ob.Blocked && (ob.cap <= 0 || ob.n < ob.cap) {
			ob.Blocked = false
		}
	}
}
