// Package engine executes one node's query diagram fragment. It provides
// the pieces of the extended SPE architecture (§3) that live between the
// Data Path and the operators:
//
//   - a service queue that models the node's processing capacity, so that
//     reprocessing a large buffer during reconciliation costs time
//     proportional to its size (this is what makes stabilization take
//     longer than the availability bound for long failures, §6.1);
//   - synchronous dispatch of tuples through the diagram;
//   - whole-diagram checkpoint and restore (checkpoint/redo, §4.4.1);
//   - divergence tracking: once any tentative tuple flows between
//     operators, the node's state has diverged and SOutput labels all
//     subsequent output tentative until reconciliation completes;
//   - REC_DONE injection once the queue drains after a replay (§4.4.2:
//     stabilization completes when the node catches up with normal
//     execution and clears its queues).
//
// Checkpoint consistency. A checkpoint is *requested* at failure-detection
// time; the snapshot is physically taken at the next batch boundary after
// every batch enqueued before the request has been dispatched. From the
// request on, the node's Input Managers log all arrivals. The snapshot thus
// captures exactly the effects of pre-request input, and the log holds
// exactly the post-request input, so restore-plus-replay neither loses nor
// double-processes a tuple. (The initial failure suspension of 0.9·D keeps
// SUnions from emitting anything tentative during the short drain between
// request and snapshot.)
package engine

import (
	"fmt"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Config parameterizes an engine.
type Config struct {
	// Capacity is the node's processing rate in tuples per second.
	// Zero means infinitely fast (tuples are dispatched immediately),
	// which is convenient for protocol unit tests.
	Capacity float64
}

type work struct {
	seq    uint64
	in     *input
	tuples []tuple.Tuple
	// chunks, set instead of tuples by IngestChunks, points at the pieces:
	// a pointer keeps the ring slot the size a single slice needs.
	chunks *[][]tuple.Tuple
	// lent is the pool tuples, or each of chunks' segments, was lent from,
	// if any: svcDone returns them after dispatch, and a batch Restore drops
	// keeps them.
	lent *tuple.LoanPool
}

// pieces returns the batch's tuples, one slice per piece; one holds the
// only piece of a single-slice batch.
func (w *work) pieces(one *[1][]tuple.Tuple) [][]tuple.Tuple {
	if w.chunks != nil {
		return *w.chunks
	}
	one[0] = w.tuples
	return one[:]
}

// consumer is one pre-resolved downstream edge: the operator map lookups
// happen once at wire time, not per tuple.
type consumer struct {
	op   operator.Operator
	port int
}

// input is the wire-time binding of one external input stream and the
// staged plane's path from it (nil: the input runs per-tuple).
type input struct {
	consumer
	ch *chain
}

// stage is one operator of a precomputed linear chain (see chain).
type stage struct {
	op   operator.Operator
	bp   operator.BatchProcessor // non-nil when op implements it
	port int
	// clean is set when op is operator.CleanPreserving: from a frame
	// without tentative tuples an accepted ProcessBatch emits none, so the
	// dispatcher need not scan the stage's output for one.
	clean bool
}

// chain is the wire-time precomputed path a batch takes from one external
// input binding through the diagram, following single-consumer non-output
// edges to a pure output operator, whose collected emissions are published
// as one batch on outStream. The staged batch plane runs it
// operator-at-a-time: every tuple of the batch through stage 0, the
// collected emissions through stage 1, and so on — the
// iterator-composition shape, without per-tuple virtual dispatch through
// the whole diagram per tuple.
type chain struct {
	stages    []stage
	outStream string
	// copyInput is set when the first stage may rewrite its input frame in
	// place (operator.MutatesBatch): the ingested batch belongs to the
	// caller, so the dispatcher hands such a stage a pool copy instead.
	copyInput bool
}

// Snapshot is a whole-diagram checkpoint.
type Snapshot struct {
	ops map[string]any
}

// Engine runs a diagram on a runtime clock (virtual or wall).
type Engine struct {
	clk runtime.Clock
	d   *diagram.Diagram
	cfg Config

	// onOutput receives every tuple emitted on an external output stream,
	// as a frame: a staged pass's collected output, or a one-tuple frame
	// for a tuple emitted on its own.
	onOutput func(stream string, ts []tuple.Tuple)
	onSignal func(operator.Signal)
	onIdle   func()

	// Staged batch plane. Each input's ch precomputes the linear operator
	// path a batch can be run through operator-at-a-time; an input without
	// one runs per-tuple (Gate C). While a stage runs, collectOp names it
	// and the stage's emissions are captured in collectBuf instead of being
	// routed downstream; frames recycles the capture buffers.
	collectOp  operator.Operator
	collectBuf []tuple.Tuple
	// collectLoan marks collectBuf as an array loaned by the running
	// stage's operator (Env.EmitLoan): used in place as the stage frame,
	// never returned to the frame pool.
	collectLoan bool
	frames      tuple.FramePool

	// queue is a ring buffer of pending batches: slots are reused across
	// the engine's lifetime, so steady-state ingest enqueues without
	// allocating.
	queue   []work
	qhead   int
	qlen    int
	nextSeq uint64
	// maxQueue is the high-water mark of qlen, a capacity-pressure probe
	// surfaced in scenario reports.
	maxQueue int

	busy      bool
	svcTimer  runtime.Timer
	svcDoneFn func(any) // bound once; service completion allocates nothing
	inService work
	diverged  bool

	// Wire-time caches of diagram lookups used on the per-batch path.
	inputs  map[string]*input
	sunions []*operator.SUnion

	cpCb   func(*Snapshot)
	cutSeq uint64

	recDonePending bool

	// Processed counts tuples dispatched through the diagram.
	Processed uint64
}

// New builds an engine for the diagram and wires every operator.
func New(clk runtime.Clock, d *diagram.Diagram, cfg Config) *Engine {
	e := &Engine{clk: clk, d: d, cfg: cfg}
	e.svcDoneFn = e.svcDone
	e.wire()
	return e
}

// Diagram returns the executed diagram.
func (e *Engine) Diagram() *diagram.Diagram { return e.d }

// OnOutputBatch registers the callback receiving every tuple emitted on an
// external output stream, as frames: a staged pass's output in one call, a
// tuple emitted on its own (a timer's flush, a stage that declines its
// frame, an input without a chain, the reference plane) as a one-tuple
// frame. The slice is only valid for the duration of the call (it is a
// pooled frame or the output operator's one-tuple array); the callback
// must copy what it retains. The engine has one output callback: this
// registration replaces OnOutput's, and the last one made wins.
func (e *Engine) OnOutputBatch(fn func(stream string, ts []tuple.Tuple)) { e.onOutput = fn }

// OnOutput registers fn as the engine's one output callback, adapted to be
// called once per tuple of each frame: it replaces an OnOutputBatch
// registration, and the last one made wins.
func (e *Engine) OnOutput(fn func(stream string, t tuple.Tuple)) {
	e.onOutput = func(stream string, ts []tuple.Tuple) {
		for i := range ts {
			fn(stream, ts[i])
		}
	}
}

// OnSignal registers the callback receiving SUnion/SOutput control signals.
func (e *Engine) OnSignal(fn func(operator.Signal)) { e.onSignal = fn }

// OnIdle registers a callback invoked whenever the service queue drains.
func (e *Engine) OnIdle(fn func()) { e.onIdle = fn }

// Diverged reports whether the node's state has diverged from the stable
// execution since the last checkpoint restore.
func (e *Engine) Diverged() bool { return e.diverged }

// QueueLen returns the number of queued, unserviced batches.
func (e *Engine) QueueLen() int { return e.qlen }

// MaxQueueLen returns the high-water mark of the service queue over the
// engine's lifetime (replays included).
func (e *Engine) MaxQueueLen() int { return e.maxQueue }

// Idle reports whether no batch is queued or in service.
func (e *Engine) Idle() bool { return !e.busy && e.qlen == 0 }

// wire attaches every operator's Env: emissions route synchronously along
// diagram edges; output operators publish to the output callback. Edge
// targets are resolved once here, so per-tuple emission does no diagram
// lookups.
func (e *Engine) wire() {
	outputOf := make(map[string]string) // op -> external stream
	for _, out := range e.d.Outputs() {
		outputOf[out.Op] = out.Stream
	}
	for _, name := range e.d.TopoOrder() {
		op := e.d.Op(name)
		edges := e.d.Downstream(name)
		cons := make([]consumer, len(edges))
		for i, edge := range edges {
			cons[i] = consumer{op: e.d.Op(edge.To), port: edge.Port}
		}
		stream, isOutput := outputOf[name]
		// An output operator publishes a tuple emitted on its own as a
		// one-tuple frame in this array, made once here.
		var one []tuple.Tuple
		if isOutput {
			one = make([]tuple.Tuple, 1)
		}
		// emit first checks whether the staged batch plane is collecting
		// this operator's emissions; the collector defers the divergence
		// bookkeeping to the staged dispatcher, which replicates the
		// reference plane's write timing exactly (see runStages).
		emit := func(t tuple.Tuple) {
			if e.collectOp == op {
				e.collectRoom(1)
				e.collectBuf = append(e.collectBuf, t)
				return
			}
			if t.Type == tuple.Tentative {
				e.diverged = true
			}
			for _, c := range cons {
				c.op.Process(c.port, t)
			}
			if one != nil {
				one[0] = t
				e.publish(stream, one)
			}
		}
		// The bulk path a ProcessBatch implementation hands its staged
		// output to: when this operator is the running stage and nothing
		// has been collected yet, the loaned array becomes the stage frame
		// outright — the usual case for a ProcessBatch that stages its
		// whole output in a scratch buffer; otherwise a single append, or
		// the reference per-tuple chain when the staged plane is not
		// collecting this operator.
		emitLoan := func(ts []tuple.Tuple) bool {
			if e.collectOp == op {
				if len(ts) == 0 {
					return false
				}
				if e.collectBuf == nil {
					e.collectBuf = ts
					e.collectLoan = true
					return true
				}
				e.collectRoom(len(ts))
				e.collectBuf = append(e.collectBuf, ts...)
				return false
			}
			for i := range ts {
				emit(ts[i])
			}
			return false
		}
		env := &operator.Env{
			Now:      e.clk.Now,
			After:    e.clk.After,
			Emit:     emit,
			EmitLoan: emitLoan,
			Signal: func(s operator.Signal) {
				if e.onSignal != nil {
					e.onSignal(s)
				}
			},
			Diverged: func() bool { return e.diverged },
		}
		op.Attach(env)
	}
	e.inputs = make(map[string]*input)
	for _, in := range e.d.Inputs() {
		e.inputs[in.Stream] = &input{consumer{e.d.Op(in.Op), in.Port}, e.buildChain(in.Op, in.Port, outputOf)}
	}
	e.sunions = e.sunions[:0]
	for _, name := range e.d.SUnions() {
		e.sunions = append(e.sunions, e.d.Op(name).(*operator.SUnion))
	}
}

// UseReferencePlane drops the staged batch plane's chains, so every batch
// from now on takes the per-tuple loop of dispatch — the reference the
// staged plane is proven byte-identical against. It is the differential
// oracle's switch, thrown after the engine is built; the engine keeps it
// across checkpoint restores and crash-restart resets.
func (e *Engine) UseReferencePlane() {
	for _, in := range e.inputs {
		in.ch = nil
	}
}

// buildChain walks the diagram from an input binding along single-consumer
// non-output edges, producing the linear path the staged batch plane runs
// operator-at-a-time. The walk must end at a pure output operator: a
// fan-out, an output that also has consumers, or a dead end yields no
// chain, and that input runs per-tuple. Every diagram deploy and client
// build is linear per input (TestDeployedDiagramsAreLinear), so no
// deployment meets the nil case. Diagrams are acyclic, so the walk
// terminates.
func (e *Engine) buildChain(opName string, port int, outputOf map[string]string) *chain {
	ch := &chain{}
	name := opName
	for {
		op := e.d.Op(name)
		st := stage{op: op, port: port}
		st.bp, _ = op.(operator.BatchProcessor)
		_, st.clean = op.(operator.CleanPreserving)
		if len(ch.stages) == 0 {
			_, ch.copyInput = op.(operator.MutatesBatch)
		}
		ch.stages = append(ch.stages, st)
		edges := e.d.Downstream(name)
		stream, isOutput := outputOf[name]
		switch {
		case len(edges) == 0 && isOutput:
			ch.outStream = stream
			return ch
		case len(edges) == 1 && !isOutput:
			name = edges[0].To
			port = edges[0].Port
		default:
			return nil
		}
	}
}

// Ingest queues a batch of tuples arriving on an external input stream.
func (e *Engine) Ingest(stream string, ts []tuple.Tuple) { e.IngestLent(stream, ts, nil) }

// IngestLent is Ingest for an array lent from pool: the engine returns it
// to pool right after the batch's dispatch, the first moment nothing reads
// it — HoldsTentative and kick's FreshCount read queued and in-service
// batches. A batch Restore discards is never returned. An empty batch is
// not queued and stays with the caller.
func (e *Engine) IngestLent(stream string, ts []tuple.Tuple, pool *tuple.LoanPool) {
	if len(ts) > 0 {
		e.enqueue(stream, work{tuples: ts, lent: pool})
	}
}

// IngestChunks queues the pieces of one batch, such as a replay handed over
// as the runs of a segmented log, as one work item: one queue slot, one
// service charge. Dispatch reads the pieces in order and never joins or
// writes them. Each piece is a whole segment lent from pool, holding its
// tuples at its start and zero past them: the engine clears each and
// returns it to pool right after the batch's dispatch, as IngestLent
// returns a loan, and a batch Restore discards is never returned. A batch
// without tuples is not queued, and its pieces go back to pool at once.
func (e *Engine) IngestChunks(stream string, chunks [][]tuple.Tuple, pool *tuple.LoanPool) {
	for _, ts := range chunks {
		if len(ts) > 0 {
			e.enqueue(stream, work{chunks: &chunks, lent: pool})
			return
		}
	}
	returnChunks(chunks, pool)
}

// returnChunks clears a batch's pieces and returns them to pool; without a
// pool they stay as they are.
func returnChunks(chunks [][]tuple.Tuple, pool *tuple.LoanPool) {
	if pool == nil {
		return
	}
	for _, ts := range chunks {
		clear(ts)
		pool.Return(ts)
	}
}

// enqueue binds a batch to its input stream, queues it and services the
// queue.
func (e *Engine) enqueue(stream string, w work) {
	if w.in = e.inputs[stream]; w.in == nil {
		panic(fmt.Sprintf("engine: unknown input stream %q", stream))
	}
	e.nextSeq++
	w.seq = e.nextSeq
	e.pushWork(w)
	e.kick()
}

// pushWork appends a batch to the ring, growing it only when full.
func (e *Engine) pushWork(w work) {
	if e.qlen == len(e.queue) {
		newCap := 2 * len(e.queue)
		if newCap == 0 {
			newCap = 8
		}
		nq := make([]work, newCap)
		for i := 0; i < e.qlen; i++ {
			nq[i] = e.queue[(e.qhead+i)%len(e.queue)]
		}
		e.queue = nq
		e.qhead = 0
	}
	e.queue[(e.qhead+e.qlen)%len(e.queue)] = w
	e.qlen++
	if e.qlen > e.maxQueue {
		e.maxQueue = e.qlen
	}
}

// popWork removes and returns the front batch, releasing the slot's tuple
// reference so the ring never pins drained batches.
func (e *Engine) popWork() work {
	w := e.queue[e.qhead]
	e.queue[e.qhead] = work{}
	e.qhead = (e.qhead + 1) % len(e.queue)
	e.qlen--
	return w
}

// clearQueue drops every queued batch (checkpoint restore).
func (e *Engine) clearQueue() {
	for i := 0; i < e.qlen; i++ {
		e.queue[(e.qhead+i)%len(e.queue)] = work{}
	}
	e.qhead = 0
	e.qlen = 0
}

// kick services the queue head if the engine is idle, taking a pending
// checkpoint first once all pre-request batches have been dispatched.
func (e *Engine) kick() {
	if e.busy {
		return
	}
	if e.cpCb != nil && (e.qlen == 0 || e.queue[e.qhead].seq > e.cutSeq) {
		cb := e.cpCb
		e.cpCb = nil
		cb(e.snapshot())
	}
	if e.qlen == 0 {
		if e.recDonePending {
			e.recDonePending = false
			e.injectRecDone()
		}
		if e.onIdle != nil {
			e.onIdle()
		}
		return
	}
	e.busy = true
	batch := e.popWork()
	var one [1][]tuple.Tuple
	n := 0 // the tuples the batch is charged for
	for _, ts := range batch.pieces(&one) {
		tuple.CheckNotReturned("Engine.kick", ts)
		// Tuples the input SUnion will drop in O(1) (behind its cursor)
		// do not consume processing capacity.
		if su, ok := batch.in.op.(*operator.SUnion); ok && e.cfg.Capacity > 0 {
			n += su.FreshCount(ts)
		} else {
			n += len(ts)
		}
	}
	svc := int64(0)
	if e.cfg.Capacity > 0 {
		svc = int64(float64(n) / e.cfg.Capacity * float64(runtime.Second))
	}
	e.inService = batch
	e.svcTimer = e.clk.AfterCall(svc, e.svcDoneFn, nil)
}

// svcDone fires when the in-service batch's processing time has elapsed.
func (e *Engine) svcDone(any) {
	e.busy = false
	e.svcTimer = nil
	batch := e.inService
	e.inService = work{}
	e.dispatch(batch)
	if batch.chunks != nil {
		returnChunks(*batch.chunks, batch.lent)
	} else {
		batch.lent.Return(batch.tuples)
	}
	e.kick()
}

// stagedPass bounds the input tuples one staged pass runs through a chain.
// A long replay (a whole failure's arrival log is one batch, in pieces of
// at most one log segment) then moves through the diagram in passes, so
// stage frames stay near this size instead of growing to the replay's.
const stagedPass = 2048

// dispatch pushes a serviced batch through the diagram. An input without a
// chain runs per-tuple (Gate C); every other batch runs through its chain
// in passes of at most stagedPass tuples that never span two of its
// pieces, whatever the batch holds. The per-tuple loop over the whole
// batch is the per-tuple loops over its parts in turn, so running the
// parts one after the other is exact. The service timer charged the whole
// batch at once in kick, so the capacity model does not see the passes.
func (e *Engine) dispatch(batch work) {
	in := batch.in
	var one [1][]tuple.Tuple
	for _, ts := range batch.pieces(&one) {
		tuple.CheckNotReturned("Engine.dispatch", ts)
		for in.ch != nil && len(ts) > 0 {
			n := min(len(ts), stagedPass)
			e.dispatchStaged(in.ch, ts[:n])
			ts = ts[n:]
		}
		for i := range ts {
			e.Processed++
			in.op.Process(in.port, ts[i])
		}
	}
}

// dispatchStaged runs one pass through a chain operator-at-a-time: every
// tuple through stage 0, stage 0's collected emissions through stage 1,
// and so on. A stage that does not take its frame runs it, and every stage
// after it, per-tuple through the emit closures: the reference path from
// that stage on. The one other deviation from plain stages is the split of
// runStages, which raises the divergence flag where the reference would.
//
// Why this is exact: the clock is constant within a dispatch; an accepted
// ProcessBatch arms no timer and raises no signal (SUnion declines under
// the policies that arm flush timers); and the engine never ingests
// REC_DONE or UNDO, because the Input Managers consume them. So the one
// state one stage writes and a later stage reads is the divergence flag,
// and reordering the per-tuple depth-first traversal into stages changes
// no observable state transition as long as every stage reads the flag as
// the reference would.
func (e *Engine) dispatchStaged(ch *chain, ts []tuple.Tuple) {
	e.Processed += uint64(len(ts))
	dirty := !e.diverged && firstTentative(ts) >= 0
	if ch.copyInput {
		ts = append(e.frames.Get(), ts...)
	}
	e.runStages(ch, 0, ts, ch.copyInput, dirty)
}

// runStages runs frame ts through ch's stages from si on and publishes what
// the last one emits; pooled says ts is a pool frame to recycle when done.
// dirty says the flag is clear and ts may hold a tentative tuple: the entry
// scan seeds it, and a stage that is not operator.CleanPreserving sets it.
// Only a dirty stage output is scanned.
//
// The split: when a stage's output holds a tentative tuple and the flag is
// clear, the part before that tuple runs through the remaining stages,
// then the flag rises, then the rest runs — as it rises on the reference
// plane when the tentative tuple is emitted. The flag only falls in Restore
// and injectRecDone, never inside a dispatch, so it rises at most once per
// pass and nothing is scanned once it is up.
func (e *Engine) runStages(ch *chain, si int, ts []tuple.Tuple, pooled, dirty bool) {
	for ; si < len(ch.stages); si++ {
		st := &ch.stages[si]
		out, outPooled, took := e.collectStage(st, ts)
		if !took {
			for i := range ts {
				st.op.Process(st.port, ts[i])
			}
			e.release(ts, pooled)
			return
		}
		if len(out) == 0 || len(ts) == 0 || &out[0] != &ts[0] {
			// Unless the stage re-emitted its input frame in place (a
			// self-loan, possibly compacted shorter), which carries the
			// frame's ownership over, the input frame is done with.
			e.release(ts, pooled)
			pooled = outPooled
		}
		ts = out
		if dirty = !e.diverged && (dirty || !st.clean); dirty {
			if k := firstTentative(ts); k >= 0 {
				e.runStages(ch, si+1, ts[:k:k], false, false)
				e.diverged = true
				e.runStages(ch, si+1, ts[k:], false, false)
				e.release(ts, pooled)
				return
			}
			dirty = false
		}
	}
	e.publish(ch.outStream, ts)
	e.release(ts, pooled)
}

// release recycles a stage frame that is a pool frame.
func (e *Engine) release(ts []tuple.Tuple, pooled bool) {
	if pooled {
		e.frames.Put(ts)
	}
}

// firstTentative returns the index of the first tentative tuple in ts, or
// -1 when it holds none.
func firstTentative(ts []tuple.Tuple) int {
	for i := range ts {
		if ts[i].Type == tuple.Tentative {
			return i
		}
	}
	return -1
}

// collectStage offers a frame to one stage's batch path, capturing its
// emissions; took is false when the stage has none or declines, and then
// nothing ran. The capture buffer is materialized lazily: a pool frame on
// the first per-tuple or copying emission, or the operator's own loaned
// array (Env.EmitLoan) aliased in place — pooled reports whether the
// output belongs to the frame pool.
func (e *Engine) collectStage(st *stage, ts []tuple.Tuple) (out []tuple.Tuple, pooled, took bool) {
	if st.bp == nil {
		return nil, false, false
	}
	e.collectOp = st.op
	took = st.bp.ProcessBatch(st.port, ts)
	out, pooled = e.collectBuf, !e.collectLoan
	e.collectOp = nil
	e.collectBuf = nil
	e.collectLoan = false
	return out, pooled, took
}

// collectRoom readies the running stage's frame for n more tuples: a pool
// frame on the first emission. A loaned operator array is appended to only
// within its capacity; before an append would outgrow it the loan moves into
// a pool frame, since growing the loan would leave the bigger array to the
// garbage collector rather than to the pool.
func (e *Engine) collectRoom(n int) {
	switch {
	case e.collectBuf == nil:
		e.collectBuf = e.frames.Get()
	case e.collectLoan && len(e.collectBuf)+n > cap(e.collectBuf):
		e.collectBuf = append(e.frames.Get(), e.collectBuf...)
		e.collectLoan = false
	}
}

// publish delivers a frame of an output operator's emissions.
func (e *Engine) publish(stream string, out []tuple.Tuple) {
	if len(out) > 0 && e.onOutput != nil {
		e.onOutput(stream, out)
	}
}

// RequestCheckpoint arranges for a snapshot capturing exactly the effects
// of every batch ingested before this call. The callback fires as soon as
// those batches have drained (immediately if the engine is idle). From this
// moment on, the caller must log all further arrivals for replay.
func (e *Engine) RequestCheckpoint(cb func(*Snapshot)) {
	if cb == nil {
		panic("engine: nil checkpoint callback")
	}
	if e.cpCb != nil {
		panic("engine: checkpoint already pending")
	}
	e.cutSeq = e.nextSeq
	if !e.busy && (e.qlen == 0 || e.queue[e.qhead].seq > e.cutSeq) {
		cb(e.snapshot())
		return
	}
	e.cpCb = cb
}

// CancelCheckpoint abandons a pending checkpoint request: the failure
// epoch that wanted the snapshot is over (a masked heal discarded it)
// and the callback must not fire. Without this, an epoch masked while
// the engine never went idle would leave its request pending, and the
// next failure's RequestCheckpoint would find a checkpoint it never
// asked for — a crash the scenario fuzzer first hit under a replica
// flap riding a loaded queue.
func (e *Engine) CancelCheckpoint() { e.cpCb = nil }

func (e *Engine) snapshot() *Snapshot {
	s := &Snapshot{ops: make(map[string]any, len(e.d.TopoOrder()))}
	for _, name := range e.d.TopoOrder() {
		s.ops[name] = e.d.Op(name).Checkpoint()
	}
	return s
}

// Restore rolls the diagram back to a snapshot and discards all queued and
// in-flight work: everything ingested after the checkpoint request lives in
// the Input Managers' logs and is about to be replayed through Ingest.
func (e *Engine) Restore(s *Snapshot) {
	for _, name := range e.d.TopoOrder() {
		e.d.Op(name).Restore(s.ops[name])
	}
	if e.svcTimer != nil {
		e.svcTimer.Stop()
		e.svcTimer = nil
	}
	e.busy = false
	e.inService = work{}
	e.clearQueue()
	e.diverged = false
	e.recDonePending = false
	// A checkpoint request still pending belongs to the epoch being rolled
	// away (reconciliation restores only after its snapshot fired, so this
	// can only be a crash-restart reset); drop it with the rest.
	e.cpCb = nil
}

// ScheduleRecDone arranges for a REC_DONE marker to flow through the
// diagram as soon as the service queue drains: the node has then caught up
// with normal execution and the correction sequence is complete (§4.4.2).
func (e *Engine) ScheduleRecDone() {
	e.recDonePending = true
	if e.Idle() {
		e.clk.After(0, func() {
			if e.recDonePending && e.Idle() {
				e.recDonePending = false
				e.injectRecDone()
			}
		})
	}
}

// injectRecDone feeds a REC_DONE tuple into every external input binding;
// multi-port SUnions forward a single marker once every path has delivered
// one, so exactly one REC_DONE reaches each output stream.
func (e *Engine) injectRecDone() {
	rd := tuple.NewRecDone(e.clk.Now())
	for _, in := range e.d.Inputs() {
		e.d.Op(in.Op).Process(in.Port, rd)
	}
	// The node is consistent again once the corrections are out.
	e.diverged = false
}

// Resetter is implemented by operators whose Restore deliberately keeps
// some state out of checkpoints (SOutput's external-stream view): a crash
// restart must clear that too.
type Resetter interface{ Reset() }

// ResetToPristine rolls every operator back to its initial state, clearing
// even non-checkpointed externals: the §4.5 crash-restart, where a node
// rebuilds from empty state.
func (e *Engine) ResetToPristine(pristine *Snapshot) {
	e.Restore(pristine)
	for _, name := range e.d.TopoOrder() {
		if r, ok := e.d.Op(name).(Resetter); ok {
			r.Reset()
		}
	}
	e.Processed = 0
}

// SetPolicyAll switches every SUnion in the diagram to the given policy
// (whole-node failure handling, §4).
func (e *Engine) SetPolicyAll(p operator.DelayPolicy) {
	for _, su := range e.sunions {
		su.SetPolicy(p)
	}
}

// RevokeTentativeAll removes tentative content from every SUnion's
// pending buckets. The reconciliation path calls it right after the
// checkpoint restore: a snapshot taken while tentative data sat in a
// bucket (possible when a crash-restarted replica re-anchors its epoch
// mid-replay of a diverged upstream) would otherwise resurrect tuples
// whose undo was already consumed patching the arrival logs — poison no
// policy can flush. Stabilization re-derives from stable data only; any
// still-valid tentative content it drops is replaced by the upstream's
// own correction sequence.
func (e *Engine) RevokeTentativeAll() {
	for _, su := range e.sunions {
		su.RevokeTentative(-1)
	}
}

// HoldsTentative reports whether any SUnion still buffers tentative
// tuples in a pending bucket. Such buckets can never stabilize on their
// own (the tentative content is only removed by rolling the operator
// back), so the node controller must not treat a heal as masked while
// this is true, even when nothing tentative ever left the node.
func (e *Engine) HoldsTentative() bool {
	for _, su := range e.sunions {
		if su.HasPendingTentative() {
			return true
		}
	}
	// Tentative tuples still queued for dispatch count too: at a heal
	// instant a just-arrived batch (e.g. the dual-connection tentative
	// feed of §4.4.3, cut moments later by consolidation) may not have
	// reached any bucket yet. Declaring the heal masked on the bucket
	// scan alone lets the batch dispatch into a bucket after the node
	// went back to STABLE — poison with no revocation left to come
	// (found by the scenario fuzzer: a partition heal during an
	// upstream's stabilization).
	var one [1][]tuple.Tuple
	for i := 0; i < e.qlen; i++ {
		if holdsTentative(e.queue[(e.qhead+i)%len(e.queue)].pieces(&one)) {
			return true
		}
	}
	// The in-service batch is no longer in the queue but has not been
	// dispatched either: kick pops it the instant it is ingested, so a
	// replay batch that mixes tentative tuples with the boundary that
	// heals the input sits exactly here when the heal decision is made
	// (found by the scenario fuzzer: an upstream's resubscription replay
	// serving tuples it produced between its own heal and its restore).
	return holdsTentative(e.inService.pieces(&one))
}

// holdsTentative reports whether any piece of a batch holds a tentative
// tuple.
func holdsTentative(pieces [][]tuple.Tuple) bool {
	for _, ts := range pieces {
		tuple.CheckNotReturned("Engine.HoldsTentative", ts)
		if firstTentative(ts) >= 0 {
			return true
		}
	}
	return false
}

// OldestPendingArrival returns the earliest arrival time buffered in any
// SUnion, used by the node controller to anchor availability bookkeeping.
func (e *Engine) OldestPendingArrival() int64 {
	oldest := e.clk.Now()
	for _, su := range e.sunions {
		if su.PendingBuckets() > 0 {
			if a := su.OldestPendingArrival(); a < oldest {
				oldest = a
			}
		}
	}
	return oldest
}
