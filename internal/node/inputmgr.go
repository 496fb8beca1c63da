package node

import (
	"fmt"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// FailKind classifies how an input stream failed.
type FailKind uint8

const (
	// FailNone: the input is healthy.
	FailNone FailKind = iota
	// FailStall: boundary tuples stopped arriving (§4.2.3): either the
	// upstream suspended, a source disconnected, or the network dropped
	// the connection.
	FailStall
	// FailTentative: the upstream started sending tentative tuples — it
	// is itself in UP_FAILURE.
	FailTentative
)

func (k FailKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailStall:
		return "stall"
	case FailTentative:
		return "tentative"
	}
	return "unknown"
}

// inputHooks are the callbacks an InputManager raises toward the node
// controller.
type inputHooks struct {
	// onFailed fires when the input transitions healthy → failed.
	onFailed func(stream string, kind FailKind)
	// onHealed fires when a failed input is stable and complete again.
	onHealed func(stream string)
	// onBroken fires when a sequence gap reveals a broken connection
	// (messages lost to a partition); the CM must resubscribe.
	onBroken func(stream, from string)
	// forward delivers live tuples into the engine.
	forward func(stream string, ts []tuple.Tuple)
}

// InputManager owns one input stream of a node: it forwards live data into
// the engine, keeps the post-checkpoint arrival log that reconciliation
// replays (§4.4.1), patches that log when the upstream sends corrections
// (UNDO + stable tuples + REC_DONE, §4.4.2), detects failures by boundary
// silence or tentative arrivals, and detects heals.
//
// During an upstream's stabilization the manager can hold two connections
// (§4.4.3): the stabilizing upstream ("correcting" — its tuples patch the
// log but are not forwarded live) and a replica still in UP_FAILURE
// ("live" — fresh tentative data keeps availability). A connection flips to
// correcting mode the moment an UNDO arrives on it and back to live mode at
// REC_DONE.
type InputManager struct {
	clk    runtime.Clock
	stream string
	hooks  inputHooks

	// stallTimeout declares the input failed after this much boundary
	// silence; zero disables stall detection (protocol unit tests).
	stallTimeout int64
	stallTimer   runtime.Timer

	// live and corr are the endpoints currently serving this stream.
	live, corr string

	// correcting marks the live connection as temporarily carrying a
	// correction sequence (single-upstream case: the only neighbor
	// entered stabilization in place).
	correcting bool

	// seamless marks a fresh subscription to a STABLE replica: the
	// first UNDO of its replay patches the log without entering
	// correcting mode, because the replica continues with live data
	// immediately after the corrections (Fig. 8).
	seamless bool

	// Subscription bookkeeping for Fig. 8 switches.
	lastStableID  uint64
	seenTentative bool

	lastBoundaryArrival int64
	lastBoundarySTime   int64

	failKind FailKind

	logging bool
	log     TupleLog

	// conns tracks per-connection batch sequencing: a gap means the
	// connection broke and in-flight data was lost; everything is then
	// dropped until a fresh subscription (seq 1) arrives.
	conns map[string]*connSeq

	// Tentative counts tentative data tuples received; Received counts
	// all data tuples. DroppedDup counts stable tuples dropped from a
	// fresh subscription's replay because they duplicated data already
	// received (id at or below lastStableID).
	Tentative  uint64
	Received   uint64
	DroppedDup uint64

	// trace, when set by Node.SetTrace, receives correction-protocol
	// events (undo, rec-done, conn-broken) on this stream.
	trace func(event, detail string)
}

// connSeq is the receive state of one upstream connection.
type connSeq struct {
	next uint64
	// established is set once a subscription's first batch (seq 1) has
	// been accepted. Gaps before that are pre-subscription leftovers of
	// an older connection (e.g. after a crash restart) and are dropped
	// silently: our own subscription is already in flight, and reacting
	// with another one would double the replay.
	established bool
	broken      bool
}

// newInputManager builds a manager for one input stream whose arrival log
// lends its segments from segs.
func newInputManager(clk runtime.Clock, stream string, stallTimeout int64, hooks inputHooks, segs *tuple.LoanPool) *InputManager {
	return &InputManager{
		clk:               clk,
		stream:            stream,
		stallTimeout:      stallTimeout,
		hooks:             hooks,
		lastBoundarySTime: -1,
		log:               NewTupleLog(segs),
		conns:             make(map[string]*connSeq),
	}
}

// admit checks a batch's sequence number against the connection state. A
// sequence of 1 is a fresh subscription (state resets); a gap marks the
// connection broken — the lost messages must be replayed under a new
// subscription, so everything is dropped until one arrives.
func (im *InputManager) admit(from string, seq uint64) bool {
	cs := im.conns[from]
	if cs == nil {
		cs = &connSeq{next: 1}
		im.conns[from] = cs
	}
	switch {
	case seq == 1:
		cs.next = 2
		cs.established = true
		cs.broken = false
		return true
	case cs.broken || !cs.established:
		return false
	case seq != cs.next:
		cs.broken = true
		if im.trace != nil {
			im.trace("conn-broken", fmt.Sprintf("%s from %s: seq %d, want %d", im.stream, from, seq, cs.next))
		}
		if im.hooks.onBroken != nil {
			im.hooks.onBroken(im.stream, from)
		}
		return false
	default:
		cs.next++
		return true
	}
}

// Delivering reports whether the endpoint has an established, unbroken
// connection — i.e. at least one batch has been admitted since the last
// subscription to it. A subscription whose SubscribeMsg was lost (sent to
// a crashed or recovering endpoint) never establishes.
func (im *InputManager) Delivering(from string) bool {
	cs := im.conns[from]
	return cs != nil && cs.established && !cs.broken
}

// ExpectFresh marks the connection to an endpoint as awaiting a fresh
// subscription (seq 1). The CM calls it whenever it sends a SubscribeMsg:
// batches of the previous connection may still be in flight with stale
// sequence numbers, and without the reset such a batch looks like a
// lost-message gap on an established connection — triggering a second
// resubscription whose second seq-1 replay duplicates every replayed
// tuple not yet behind the serialization cursor (found by the scenario
// fuzzer: a partition heal whose resubscription raced an in-flight
// batch, violating Definition 1 with duplicated stable output).
func (im *InputManager) ExpectFresh(from string) {
	cs := im.conns[from]
	if cs == nil {
		return
	}
	cs.established = false
	cs.broken = false
}

// Stream returns the managed stream name.
func (im *InputManager) Stream() string { return im.stream }

// Failed reports whether the input is currently failed.
func (im *InputManager) Failed() bool { return im.failKind != FailNone }

// FailureKind returns the current failure classification.
func (im *InputManager) FailureKind() FailKind { return im.failKind }

// Live returns the endpoint of the live connection ("" if none).
func (im *InputManager) Live() string { return im.live }

// Correcting returns the endpoint currently supplying corrections ("").
func (im *InputManager) Correcting() string {
	if im.correcting {
		return im.live
	}
	return im.corr
}

// LastStableID returns the id of the last stable tuple received, for
// subscribe messages (Fig. 8).
func (im *InputManager) LastStableID() uint64 { return im.lastStableID }

// SeenTentative reports whether tentative tuples followed the last stable
// one, for subscribe messages.
func (im *InputManager) SeenTentative() bool { return im.seenTentative }

// StartLog begins (or restarts) the post-checkpoint arrival log.
func (im *InputManager) StartLog() {
	im.logging = true
	im.log.truncate(0)
}

// StopLog ends logging and discards the log, returning its segments to
// the pool.
func (im *InputManager) StopLog() {
	im.logging = false
	im.log.truncate(0)
}

// TakeLog returns the patched log for replay, one whole segment per run of
// it, and empties the log without writing them again (logging stays on:
// arrivals during the replay belong to the next checkpoint epoch only after
// the controller takes a new checkpoint; until then they must remain
// replayable, so the controller calls StartLog again at that moment). The
// caller owns the segments: Engine.IngestChunks returns them to the pool
// once the replay is dispatched.
func (im *InputManager) TakeLog() [][]tuple.Tuple { return im.log.takeRuns() }

// LogLen returns the current log length (for tests and buffer accounting).
func (im *InputManager) LogLen() int { return im.log.n }

// SetConnections points the manager at its current upstream endpoints.
// The Consistency Manager calls this when it (re)subscribes. seamless marks
// the live connection as a fresh subscription to a STABLE replica whose
// replayed corrections flow straight into live data (Fig. 8).
func (im *InputManager) SetConnections(live, corr string, seamless bool) {
	im.live = live
	im.corr = corr
	im.seamless = seamless
	if seamless {
		im.correcting = false
	}
	// A (re)connection restarts the boundary-silence clock.
	im.lastBoundaryArrival = im.clk.Now()
	im.armStallTimer()
}

// Handle processes a batch arriving from an upstream endpoint.
//
// Ordering matters here for checkpoint/replay exactness. A *failure*
// transition must fire BEFORE the batch is logged and forwarded: the
// checkpoint cut then precedes the batch, so the batch lands in both the
// post-cut ingress queue and the fresh arrival log — restore discards the
// queue and the replay delivers it exactly once, with no tentative effects
// captured inside the snapshot. A *heal* transition must fire AFTER the
// batch is forwarded: if reconciliation is granted synchronously, the
// restore discards the just-queued live copy and the replay (which includes
// this batch, logged above) again delivers it exactly once.
func (im *InputManager) Handle(from string, seq uint64, ts []tuple.Tuple) {
	tuple.CheckNotReturned("InputManager.Handle", ts)
	fromCorr := im.corr != "" && from == im.corr
	if !fromCorr && from != im.live {
		return // stale connection we already unsubscribed from
	}
	if !im.admit(from, seq) {
		return // lost-message gap: wait for the resubscription replay
	}
	if im.trace != nil {
		var ins, tent, bound, corr int
		for i := range ts {
			switch ts[i].Type {
			case tuple.Insertion:
				ins++
			case tuple.Tentative:
				tent++
			case tuple.Boundary:
				bound++
			default:
				corr++
			}
		}
		im.trace("batch", fmt.Sprintf("%s from %s seq %d: %d stable, %d tentative, %d boundary, %d corrections",
			im.stream, from, seq, ins, tent, bound, corr))
	}
	// A fresh subscription's replay can overlap data this manager already
	// received — e.g. two resubscriptions racing each other produce two
	// replays from the same from-id, or a source whose log was truncated
	// replays from before the requested position. Stable identifiers are
	// unique and monotonic on a stream, so stable tuples at or below
	// lastStableID in a seq-1 batch are exact duplicates and are dropped
	// here, before logging and forwarding (a duplicate reaching a pending
	// serialization bucket is emitted twice, violating Definition 1).
	// Tentative tuples are exempt: their ids number a provisional suffix
	// and may legitimately sit at or below the stable watermark after a
	// switch to a diverged replica.
	dedupBelow := uint64(0)
	if seq == 1 {
		dedupBelow = im.lastStableID
	}
	// The failure transition fires up front, before any of the batch is
	// logged/forwarded (see the ordering contract above): a tentative tuple
	// before the first undo declares it.
	if !fromCorr && !im.correcting && im.failKind == FailNone && tentativeBeforeUndo(ts) {
		im.declareFailed(FailTentative)
	}
	// One walk over the batch. Each run of fresh data and stable boundaries
	// is logged in one append and goes live whole; a duplicate, a tentative
	// boundary, an UNDO or a REC_DONE ends the run and is handled on its
	// own. live says whether the connection's tuples go live: not while it
	// carries corrections, which an UNDO or a REC_DONE switches.
	live := !fromCorr && !im.correcting
	out := liveFrame{ts: ts}
	healed := false
	for i := 0; i < len(ts); i++ {
		// The run's data counters stay in locals until it ends: a counter
		// field bumped per tuple would chain every step of the walk through
		// memory.
		j, tent, bounds, last, lastStable := i, 0, 0, -1, -1
	run:
		for ; j < len(ts); j++ {
			t := &ts[j] // read-only; indexing avoids a 48-byte copy per tuple
			switch {
			case t.Type == tuple.Insertion && t.ID > dedupBelow:
				last, lastStable = j, j
			case t.Type == tuple.Tentative:
				last = j
				tent++
			case t.Type == tuple.Boundary && t.Src != 1:
				bounds++
				im.touchBoundary(t.STime)
				// Boundary progress on the live connection means the
				// stream is stable and complete through this point: a
				// stalled gap was replayed (FIFO), or a diverged upstream
				// — which suppresses boundaries — is stable again. Either
				// way the input has healed.
				if live && im.failKind != FailNone {
					healed = true
				}
			default:
				break run
			}
		}
		if j > i {
			im.Received += uint64(j - i - bounds)
			im.Tentative += uint64(tent)
			if lastStable >= 0 {
				im.lastStableID = ts[lastStable].ID
			}
			if last >= 0 {
				im.seenTentative = ts[last].Type == tuple.Tentative
			}
			if tent > 0 {
				// Tentative data ends the subscribe-replay grace: any later
				// undo on this connection is a real correction sequence.
				im.seamless = false
			}
			if im.logging {
				im.log.appendAll(ts[i:j])
			}
			if live {
				out.add(i, j)
			}
			if i = j; i == len(ts) {
				break
			}
		}
		t := &ts[i]
		switch t.Type {
		case tuple.Insertion: // at or below the stable watermark
			im.DroppedDup++
		case tuple.Boundary:
			// Tentative boundary (footnote 5): a heartbeat bounding the
			// tentative stream. Forward it live, but it proves no
			// stability: no heal, no log entry, no stable watermark.
			if live {
				out.add(i, i+1)
			}
			im.lastBoundaryArrival = im.clk.Now()
			im.armStallTimer()
		case tuple.Undo:
			if im.trace != nil {
				im.trace("undo", fmt.Sprintf("%s from %s: id %d (seamless %v)", im.stream, from, t.ID, im.seamless))
			}
			// A correction sequence begins on this connection.
			if !fromCorr {
				if im.seamless {
					// Subscribe-replay of a STABLE replica: corrections
					// flow straight into live data; just patch the log
					// (Fig. 8).
					im.seamless = false
				} else {
					im.correcting = true
				}
			}
			im.log.Undo(t.ID)
			im.seenTentative = false
		case tuple.RecDone:
			if im.trace != nil {
				im.trace("rec-done", fmt.Sprintf("%s from %s", im.stream, from))
			}
			// Corrections complete: the stable stream is current and
			// covers the log's tentative entries, so replaying them would
			// duplicate data.
			im.log.stripTentative()
			if fromCorr {
				// The corrected stream takes over as live; the controller
				// unsubscribes the old tentative feed (§4.4.3).
				im.live = from
				im.corr = ""
			}
			im.correcting = false
			if im.failKind != FailNone {
				healed = true
			}
		}
		live = !fromCorr && !im.correcting
	}
	if ts := out.frame(); len(ts) > 0 && im.hooks.forward != nil {
		im.hooks.forward(im.stream, ts)
	}
	if healed {
		im.heal()
	}
}

// tentativeBeforeUndo reports whether a tentative tuple comes before the
// batch's first UNDO.
func tentativeBeforeUndo(ts []tuple.Tuple) bool {
	for i := range ts {
		switch ts[i].Type {
		case tuple.Tentative:
			return true
		case tuple.Undo:
			return false
		}
	}
	return false
}

// liveFrame collects the tuples of a batch that go live, in order. While
// every tuple so far went live the frame is the batch's own leading tuples,
// ts[:n]; once a tuple is held back before a later live one, it is a copy.
// It never starts inside the batch after ts[0]: the node hands a lent batch
// to the engine only when the frame starts at ts[0] (Node.takeLoan).
type liveFrame struct {
	ts  []tuple.Tuple
	n   int
	out []tuple.Tuple
}

// add appends ts[i:j] to the frame.
func (f *liveFrame) add(i, j int) {
	if f.out == nil {
		if i == f.n {
			f.n = j
			return
		}
		f.out = append(make([]tuple.Tuple, 0, f.n+len(f.ts)-i), f.ts[:f.n]...)
	}
	f.out = append(f.out, f.ts[i:j]...)
}

// frame returns the live tuples.
func (f *liveFrame) frame() []tuple.Tuple {
	if f.out != nil {
		return f.out
	}
	return f.ts[:f.n]
}

// touchBoundary records boundary progress and re-arms stall detection.
func (im *InputManager) touchBoundary(stime int64) {
	if stime > im.lastBoundarySTime {
		im.lastBoundarySTime = stime
	}
	im.lastBoundaryArrival = im.clk.Now()
	im.armStallTimer()
}

func (im *InputManager) armStallTimer() {
	if im.stallTimeout <= 0 {
		return
	}
	if im.stallTimer != nil {
		im.stallTimer.Stop()
	}
	im.stallTimer = im.clk.After(im.stallTimeout, func() {
		im.stallTimer = nil
		if im.failKind == FailNone && !im.correcting {
			im.declareFailed(FailStall)
		}
	})
}

// Reset returns the manager to its initial state: crash recovery (§4.5)
// rebuilds a node from nothing, including its subscription bookkeeping.
// The arrival log's segments go back to its pool.
func (im *InputManager) Reset() {
	im.stopStallTimer()
	im.log.truncate(0)
	*im = InputManager{
		clk:               im.clk,
		stream:            im.stream,
		stallTimeout:      im.stallTimeout,
		hooks:             im.hooks,
		trace:             im.trace,
		lastBoundarySTime: -1,
		log:               im.log,
		conns:             make(map[string]*connSeq),
	}
}

// stopStallTimer disarms stall detection until the next arrival or
// (re)connection arms it again.
func (im *InputManager) stopStallTimer() {
	if im.stallTimer != nil {
		im.stallTimer.Stop()
		im.stallTimer = nil
	}
}

// StartMonitoring arms stall detection; the node calls it once the first
// subscription is active.
func (im *InputManager) StartMonitoring() {
	im.lastBoundaryArrival = im.clk.Now()
	im.armStallTimer()
}

func (im *InputManager) declareFailed(kind FailKind) {
	if im.failKind != FailNone {
		return
	}
	im.failKind = kind
	if im.hooks.onFailed != nil {
		im.hooks.onFailed(im.stream, kind)
	}
}

func (im *InputManager) heal() {
	if im.failKind == FailNone {
		return
	}
	im.failKind = FailNone
	im.armStallTimer()
	if im.hooks.onHealed != nil {
		im.hooks.onHealed(im.stream)
	}
}
