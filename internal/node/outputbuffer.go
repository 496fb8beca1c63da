package node

import (
	"slices"
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
	// undo) and Reset return every segment they empty to the log's pool, so
	// an acknowledged buffer in steady state allocates nothing and holds no
	// more than its own high-water mark.
	log  TupleLog
	subs map[string]*obSub

	// acks maps downstream endpoints to the highest stable tuple id they
	// acknowledged; truncation keeps everything after the minimum over
	// the expected set.
	acks     map[string]uint64
	expected []string

	// Emissions of the same instant go out in one DataMsg per subscriber:
	// the instant's flush is pending followed by the log's fresh newest
	// tuples. Data and boundaries only count into fresh, staged in the log's
	// own segments; an UNDO or REC_DONE, or a truncation reaching into the
	// fresh tuples, first moves them into pending (stage). The flush stages
	// the rest and lends pending to the fabric, which copies it during Send,
	// and the next instant refills it. A pending array grown past
	// tuple.LoanMaxCap (a replay-sized instant) is given away instead: it
	// is not kept for the next instant, so no fabric needs to copy it.
	pending    []tuple.Tuple
	fresh      int
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

// obSub is one subscription's send state. skip counts the tuples of the
// pending flush that were published before the subscription: its replay
// already reflects them.
type obSub struct {
	seq  uint64
	skip int
}

// NewOutputBuffer builds a buffer for one output stream of endpoint self.
// The log's first segment is made on the first append. The buffer recycles
// its segments through a pool of its own; a node's buffers share the
// node's.
func NewOutputBuffer(clk runtime.Clock, net fabric.Fabric, self, stream string, mode BufferMode, capTuples int, expected []string) *OutputBuffer {
	return newOutputBuffer(clk, net, self, stream, mode, capTuples, expected, new(tuple.LoanPool))
}

// newOutputBuffer is NewOutputBuffer with its segments lent from segs.
func newOutputBuffer(clk runtime.Clock, net fabric.Fabric, self, stream string, mode BufferMode, capTuples int, expected []string, segs *tuple.LoanPool) *OutputBuffer {
	ob := &OutputBuffer{
		net:      net,
		self:     self,
		stream:   stream,
		mode:     mode,
		cap:      capTuples,
		clk:      clk,
		log:      NewTupleLog(segs),
		subs:     make(map[string]*obSub),
		acks:     make(map[string]uint64),
		expected: append([]string(nil), expected...),
	}
	ob.flushFn = ob.flush
	return ob
}

// Len returns the number of buffered tuples.
func (ob *OutputBuffer) Len() int { return ob.log.n }

// drop discards the k oldest live tuples, counting them as truncated.
func (ob *OutputBuffer) drop(k int) {
	if k > ob.log.n-ob.fresh {
		ob.stage()
	}
	ob.log.dropHead(k)
	ob.Truncated += uint64(k)
}

// Reset clears the buffer, subscriptions, and acknowledgments: crash
// recovery (§4.5) starts the stream over — buffers are volatile (§2.2) and
// pre-crash subscribers must re-subscribe (their sequence tracking detects
// the reset).
func (ob *OutputBuffer) Reset() {
	ob.log.truncate(0)
	ob.subs = make(map[string]*obSub)
	ob.subsSorted = nil
	ob.acks = make(map[string]uint64)
	ob.pending, ob.fresh = nil, 0
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

// PublishBatch handles a frame of tuples the local diagram emitted on this
// stream, in order: data and boundaries are buffered and forwarded to every
// subscriber, an UNDO compacts the buffer and is forwarded, a REC_DONE is
// only forwarded. It reports false when a full BufferBlock buffer refused a
// tuple — the caller must stop producing (back-pressure). Each run of data
// and boundaries is appended to the log in one step and joins the instant's
// flush in one step; only a run that would cross the capacity limit takes
// the §8.1 rule tuple by tuple.
func (ob *OutputBuffer) PublishBatch(ts []tuple.Tuple) bool {
	ok := true
	for len(ts) > 0 {
		k := 0
		for k < len(ts) && (ts[k].IsData() || ts[k].Type == tuple.Boundary) {
			k++
		}
		if ob.cap > 0 && ob.mode != BufferUnbounded && ob.log.n+k > ob.cap {
			for i := range ts[:k] {
				if ob.log.n >= ob.cap {
					if ob.mode == BufferBlock {
						ob.Blocked = true
						ok = false
						continue
					}
					ob.drop(ob.log.n - ob.cap + 1)
				}
				ob.log.Append(ts[i])
				ob.sendLogged(1)
			}
		} else if k > 0 {
			ob.log.appendAll(ts[:k])
			ob.sendLogged(k)
		}
		if k == len(ts) {
			break
		}
		t := ts[k]
		ts = ts[k+1:]
		if t.Type == tuple.Undo {
			// Compact: delete the revoked tentative suffix. Replays from
			// now on reflect the corrected stream; live subscribers get
			// the undo itself.
			ob.stage()
			ob.log.Undo(t.ID)
		}
		// A REC_DONE is not buffered: a late subscriber sees only
		// corrected data.
		ob.send(t)
	}
	return ok
}

// sendLogged queues the k tuples just appended to the log for delivery to
// all subscribers: they join the instant's fresh tuples.
func (ob *OutputBuffer) sendLogged(k int) {
	if len(ob.subs) == 0 {
		return
	}
	ob.fresh += k
	ob.armFlush()
}

// send queues a tuple the log does not hold (UNDO, REC_DONE) for delivery
// to all subscribers, after the instant's earlier emissions.
func (ob *OutputBuffer) send(t tuple.Tuple) {
	if len(ob.subs) == 0 {
		return
	}
	ob.stage()
	ob.pending = append(ob.pending, t)
	ob.armFlush()
}

// armFlush coalesces the instant's emissions into one network message per
// subscriber, sent when the instant ends.
func (ob *OutputBuffer) armFlush() {
	if ob.flushTimer == nil {
		ob.flushTimer = ob.clk.After(0, ob.flushFn)
	}
}

// stage moves the instant's fresh tuples out of the log into pending, before
// the log changes under them.
func (ob *OutputBuffer) stage() {
	if ob.fresh == 0 {
		return
	}
	k := len(ob.pending)
	ob.pending = slices.Grow(ob.pending, ob.fresh)[:k+ob.fresh]
	ob.log.copyOut(ob.pending[k:], ob.log.n-ob.fresh)
	ob.fresh = 0
}

func (ob *OutputBuffer) flush() {
	ob.flushTimer = nil
	ob.stage()
	batch, n := ob.pending, len(ob.pending)
	if n == 0 {
		return
	}
	given := cap(batch) > tuple.LoanMaxCap
	for _, ep := range ob.Subscribers() {
		sub := ob.subs[ep]
		ts := batch[sub.skip:n:n]
		sub.skip = 0
		if len(ts) == 0 {
			continue
		}
		sub.seq++
		ob.net.Send(ob.self, ep, DataMsg{Stream: ob.stream, Seq: sub.seq, Tuples: ts, Given: given})
	}
	if given {
		ob.pending = nil
	} else {
		ob.pending = batch[:0]
	}
}

// Subscribe registers a downstream endpoint and replays the buffer from
// its last stable tuple (§4.3, Fig. 8): if the subscriber saw tentative
// tuples after FromID, an UNDO precedes the replay. Each subscription
// restarts the batch sequence at 1. A subscriber joining while a flush is
// pending receives only the part of it published after it joined: the
// replay already reflects the rest.
func (ob *OutputBuffer) Subscribe(from string, msg SubscribeMsg) {
	sub := &obSub{skip: len(ob.pending) + ob.fresh}
	ob.subs[from] = sub
	ob.subsSorted = nil
	if msg.TailOnly {
		return
	}
	start, undo := ob.afterIndex(msg.FromID), 0
	if msg.SeenTentative {
		undo = 1
	}
	n := undo + ob.log.n - start
	if n == 0 {
		return
	}
	replay := make([]tuple.Tuple, n)
	if undo == 1 {
		replay[0] = tuple.NewUndo(msg.FromID)
	}
	ob.log.copyOut(replay[undo:], start)
	sub.seq++
	ob.net.Send(ob.self, from, DataMsg{Stream: ob.stream, Seq: sub.seq, Tuples: replay, Given: true})
}

// afterIndex returns the log index following the data tuple with the given
// id (0, everything, if id is 0 or unknown because it was truncated).
func (ob *OutputBuffer) afterIndex(id uint64) int {
	if id == 0 {
		return 0
	}
	return 1 + ob.log.lastIndex(func(t *tuple.Tuple) bool { return t.IsData() && t.ID == id })
}

// Unsubscribe removes a subscriber. Without subscribers the pending flush
// has no receiver, so it is dropped.
func (ob *OutputBuffer) Unsubscribe(from string) {
	delete(ob.subs, from)
	ob.subsSorted = nil
	if len(ob.subs) == 0 {
		ob.pending, ob.fresh = ob.pending[:0], 0
	}
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
	if cut := ob.log.ackCut(min); cut > 0 {
		ob.drop(cut)
		if ob.Blocked && (ob.cap <= 0 || ob.log.n < ob.cap) {
			ob.Blocked = false
		}
	}
}
