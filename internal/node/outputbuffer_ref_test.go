package node

import (
	"sort"

	"borealis/internal/fabric"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// refOutputBuffer is the OutputBuffer as it was before the segmented log:
// one doubling slice with a head index, kept (renamed) as the reference
// model outputbuffer_equiv_test.go drives the real buffer against. One
// change since: a subscriber that joins while a flush is pending receives
// only the part of it published after it joined (refOBSub.skip); before,
// it received the tuples its replay held a second time.

// refOutputBuffer is the Data Path's per-output-stream buffer. It retains, in
// emission order, every data tuple (stable and tentative) and interleaved
// boundary, so that any replica of any downstream neighbor can subscribe at
// any moment and be caught up from its last stable tuple (§4.3, Fig. 8).
// When the local diagram emits an UNDO, the buffer compacts: the revoked
// tentative suffix is deleted, so replays always reflect the corrected
// stream.
type refOutputBuffer struct {
	net    fabric.Fabric
	self   string
	stream string
	mode   BufferMode
	cap    int

	// buf[head:] is the live buffer contents. Truncation (acks, slide
	// mode) advances head in O(1); dead prefix space is reclaimed in
	// place the next time the buffer needs room, so a full slide buffer
	// never recopies itself per published tuple.
	buf  []tuple.Tuple
	head int
	subs map[string]*refOBSub

	// acks maps downstream endpoints to the highest stable tuple id they
	// acknowledged; truncation keeps everything after the minimum over
	// the expected set.
	acks     map[string]uint64
	expected []string

	// pending batches emissions of the same instant into one DataMsg.
	// flush hands the filled slice to the network layer, where it is
	// shared by every subscriber's in-flight message, so each flush needs
	// a fresh array; pendHint remembers the high-water flush size so that
	// array is allocated once at full size instead of grown per append.
	pending    []tuple.Tuple
	pendHint   int
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

// refOBSub is one subscription's send state. skip counts the tuples of the
// pending flush published before the subscription (the replay reflects
// them): flush sends only the rest.
type refOBSub struct {
	seq  uint64
	skip int
}

// newRefOutputBuffer builds a buffer for one output stream of endpoint self.
func newRefOutputBuffer(clk runtime.Clock, net fabric.Fabric, self, stream string, mode BufferMode, capTuples int, expected []string) *refOutputBuffer {
	ob := &refOutputBuffer{
		net:      net,
		self:     self,
		stream:   stream,
		mode:     mode,
		cap:      capTuples,
		clk:      clk,
		subs:     make(map[string]*refOBSub),
		acks:     make(map[string]uint64),
		expected: append([]string(nil), expected...),
	}
	ob.flushFn = ob.flush
	return ob
}

// Len returns the number of buffered tuples.
func (ob *refOutputBuffer) Len() int { return len(ob.buf) - ob.head }

// live returns the current buffer contents.
func (ob *refOutputBuffer) live() []tuple.Tuple { return ob.buf[ob.head:] }

// drop discards the n oldest live tuples, clearing their slots so the
// buffer does not pin emitted payloads.
func (ob *refOutputBuffer) drop(n int) {
	clear(ob.buf[ob.head : ob.head+n])
	ob.head += n
	ob.Truncated += uint64(n)
}

// appendBuf adds one tuple, reclaiming dead head space in place when the
// backing array fills, and doubling it only when more than half is live.
func (ob *refOutputBuffer) appendBuf(t tuple.Tuple) {
	if len(ob.buf) == cap(ob.buf) {
		live := len(ob.buf) - ob.head
		if ob.head > 0 && live <= cap(ob.buf)/2 {
			copy(ob.buf, ob.buf[ob.head:])
			clear(ob.buf[live:])
			ob.buf = ob.buf[:live]
		} else {
			nc := 2 * live
			if nc < 64 {
				nc = 64
			}
			nb := make([]tuple.Tuple, live, nc)
			copy(nb, ob.buf[ob.head:])
			ob.buf = nb
		}
		ob.head = 0
	}
	ob.buf = append(ob.buf, t)
}

// reserve makes room for n more tuples with appendBuf's policy applied
// once for the whole batch: dead head space is reclaimed in place when no
// more than half the array stays live, otherwise the array grows to twice
// the post-append live size.
func (ob *refOutputBuffer) reserve(n int) {
	if len(ob.buf)+n <= cap(ob.buf) {
		return
	}
	live := len(ob.buf) - ob.head
	if ob.head > 0 && live <= cap(ob.buf)/2 && live+n <= cap(ob.buf) {
		copy(ob.buf, ob.buf[ob.head:])
		clear(ob.buf[live:])
		ob.buf = ob.buf[:live]
		ob.head = 0
		return
	}
	nc := 2 * (live + n)
	if nc < 64 {
		nc = 64
	}
	nb := make([]tuple.Tuple, live, nc)
	copy(nb, ob.buf[ob.head:])
	ob.buf = nb
	ob.head = 0
}

// Reset clears the buffer, subscriptions, and acknowledgments: crash
// recovery (§4.5) starts the stream over — buffers are volatile (§2.2) and
// pre-crash subscribers must re-subscribe (their sequence tracking detects
// the reset).
func (ob *refOutputBuffer) Reset() {
	ob.buf = nil
	ob.head = 0
	ob.subs = make(map[string]*refOBSub)
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
func (ob *refOutputBuffer) Subscribers() []string {
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
func (ob *refOutputBuffer) Publish(t tuple.Tuple) bool {
	switch {
	case t.IsData(), t.Type == tuple.Boundary:
		if ob.cap > 0 && ob.Len() >= ob.cap {
			switch ob.mode {
			case BufferBlock:
				ob.Blocked = true
				return false
			case BufferSlide:
				ob.drop(ob.Len() - ob.cap + 1)
			}
		}
		ob.appendBuf(t)
	case t.Type == tuple.Undo:
		// Compact: delete the revoked tentative suffix. Replays from
		// now on reflect the corrected stream; live subscribers get
		// the undo itself.
		live := ob.live()
		kept := tuple.ApplyUndo(live, t.ID)
		clear(live[len(kept):])
		ob.buf = ob.buf[:ob.head+len(kept)]
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
func (ob *refOutputBuffer) PublishBatch(ts []tuple.Tuple) bool {
	bulk := ob.cap <= 0 || ob.Len()+len(ts) <= ob.cap
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
	ob.reserve(len(ts))
	ob.buf = append(ob.buf, ts...)
	if len(ob.subs) > 0 {
		if ob.pending == nil {
			// One bulk publish usually carries the instant's whole
			// flush, so size the message array exactly: a boundary-only
			// instant then allocates a couple of slots, not the
			// high-water mark a bucket flush once reached (pendHint
			// stays in use on the per-tuple send path, where growing
			// one append at a time would thrash).
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
// same-instant emissions into one network message per subscriber.
func (ob *refOutputBuffer) send(t tuple.Tuple) {
	if len(ob.subs) == 0 {
		return
	}
	if ob.pending == nil && ob.pendHint > 0 {
		ob.pending = make([]tuple.Tuple, 0, ob.pendHint)
	}
	ob.pending = append(ob.pending, t)
	if ob.flushTimer == nil {
		ob.flushTimer = ob.clk.After(0, ob.flushFn)
	}
}

func (ob *refOutputBuffer) flush() {
	ob.flushTimer = nil
	if len(ob.pending) == 0 {
		return
	}
	batch := ob.pending
	ob.pending = nil
	if len(batch) > ob.pendHint {
		ob.pendHint = len(batch)
	}
	for _, ep := range ob.Subscribers() {
		sub := ob.subs[ep]
		ts := batch[sub.skip:len(batch):len(batch)]
		sub.skip = 0
		if len(ts) == 0 {
			continue
		}
		sub.seq++
		ob.net.Send(ob.self, ep, DataMsg{Stream: ob.stream, Seq: sub.seq, Tuples: ts})
	}
}

// Subscribe registers a downstream endpoint and replays the buffer from
// its last stable tuple (§4.3, Fig. 8): if the subscriber saw tentative
// tuples after FromID, an UNDO precedes the replay. Each subscription
// restarts the batch sequence at 1.
func (ob *refOutputBuffer) Subscribe(from string, msg SubscribeMsg) {
	sub := &refOBSub{skip: len(ob.pending)}
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
func (ob *refOutputBuffer) after(id uint64) []tuple.Tuple {
	live := ob.live()
	start := 0
	if id > 0 {
		for i := len(live) - 1; i >= 0; i-- {
			if live[i].IsData() && live[i].ID == id {
				start = i + 1
				break
			}
		}
	}
	out := make([]tuple.Tuple, len(live)-start)
	copy(out, live[start:])
	return out
}

// Unsubscribe removes a subscriber.
func (ob *refOutputBuffer) Unsubscribe(from string) {
	delete(ob.subs, from)
	ob.subsSorted = nil
}

// Ack records a downstream acknowledgment and truncates the buffer to the
// suffix someone might still need: everything after the minimum
// acknowledged stable tuple across all *expected* downstream endpoints
// (§8.1: a node buffers its output until all replicas of all downstream
// neighbors received it). Without an expected set, acks are recorded but
// nothing is truncated.
func (ob *refOutputBuffer) Ack(from string, upTo uint64) {
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
	live := ob.live()
	cut := 0
	for i := range live {
		t := &live[i]
		if t.IsData() && t.ID <= min && t.Type == tuple.Insertion {
			cut = i + 1
		}
		if t.IsData() && t.ID > min {
			break
		}
	}
	if cut > 0 {
		ob.drop(cut)
		if ob.Blocked && (ob.cap <= 0 || ob.Len() < ob.cap) {
			ob.Blocked = false
		}
	}
}
