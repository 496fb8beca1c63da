package operator

import "borealis/internal/tuple"

// SOutput sits on every output stream that crosses a node boundary (§3,
// §4.4.2). At runtime it is a pass-through that assigns stream-unique,
// monotonically increasing tuple identifiers and remembers the last stable
// tuple it produced. During state reconciliation it stabilizes the external
// stream: it drops stable tuples the outside world has already seen, emits a
// single UNDO tuple (naming the last stable tuple to keep) before the first
// correction, and forwards the REC_DONE marker downstream and to the
// Consistency Manager.
//
// SOutput keeps two kinds of state. Its internal counters are checkpointed
// and rolled back with the rest of the diagram. Its *external* view — what
// has actually been sent on the wire — must survive a rollback untouched,
// because the outside world does not roll back; those fields are therefore
// excluded from Checkpoint/Restore.
type SOutput struct {
	Base
	// sentStable counts stable tuples produced by the diagram; it is
	// checkpointed, so after a restore it tells SOutput how many
	// re-derived stable tuples are duplicates of pre-checkpoint output.
	sentStable uint64

	// External-stream state (never rolled back).
	extStable    uint64 // stable tuples actually sent
	lastStableID uint64 // id of the last stable tuple sent
	extTentative uint64 // tentative tuples sent since the last stable one
	undoArmed    bool   // emit UNDO before the next data tuple if needed
	undos        uint64
	recDone      uint64

	// scratch stages ProcessBatch output; reused across batches, never
	// part of operator state.
	scratch []tuple.Tuple
	// raised is set within a ProcessBatch call once it emitted a tentative
	// tuple (see diverged).
	raised bool
}

// NewSOutput builds an SOutput.
func NewSOutput(name string) *SOutput {
	return &SOutput{Base: NewBase(name)}
}

// Inputs returns 1.
func (o *SOutput) Inputs() int { return 1 }

// LastStableID returns the identifier of the last stable tuple sent on the
// external stream.
func (o *SOutput) LastStableID() uint64 { return o.lastStableID }

// TentativeOutstanding reports how many tentative tuples the external
// stream has seen since its last stable tuple (Ntentative of this stream,
// Definition 2).
func (o *SOutput) TentativeOutstanding() uint64 { return o.extTentative }

// UndosEmitted reports how many undo tuples this SOutput produced.
func (o *SOutput) UndosEmitted() uint64 { return o.undos }

// diverged reports whether the node's state has diverged from the stable
// execution; while diverged, everything SOutput emits is tentative and
// boundary tuples are withheld (the implementation does not produce
// tentative boundaries; footnote 5). Emitting a tentative tuple raises the
// node's flag; a caller collecting a ProcessBatch call's output raises it
// only after the call, so within the call raised stands in for it.
func (o *SOutput) diverged() bool {
	env := o.Env()
	return o.raised || env != nil && env.Diverged != nil && env.Diverged()
}

// Process consumes one tuple from the diagram and manages the external
// stream.
func (o *SOutput) Process(_ int, t tuple.Tuple) {
	switch {
	case t.IsData():
		tentative := t.Type == tuple.Tentative || o.diverged()
		if !tentative {
			o.sentStable++
			if o.sentStable <= o.extStable {
				// Re-derived duplicate of a stable tuple the
				// outside world already has: drop (§4.4.2).
				return
			}
		}
		o.maybeUndo()
		// Identifiers derive from the position in the stable stream, not
		// from a global emission counter: the i-th stable tuple always
		// carries id i, and tentative tuples number the provisional
		// suffix after the last stable one. A counter that also burned
		// ids on tentative emissions would make the id of a re-derived
		// stable tuple depend on how much tentative data the failure
		// produced first — and downstream SUnions break serialization
		// ties by id, so failure-dependent ids reorder equal-timestamp
		// groups relative to the fault-free execution, violating
		// Definition 1 two hops downstream (found by the scenario fuzzer
		// in a cascade diamond). Ids of a revoked tentative suffix are
		// reused by the correction that replaces it; every buffer and
		// log compacts that suffix when the undo passes, so the reused
		// ids never coexist with the revoked ones.
		if tentative {
			t.Type = tuple.Tentative
			o.extTentative++
			t.ID = o.lastStableID + o.extTentative
		} else {
			if o.extTentative > 0 {
				// Stable data resuming while tentative output is
				// still outstanding and no rollback armed the undo:
				// revoke the suffix now. The wire contract (Fig. 8)
				// is that stable data never follows unrevoked
				// tentative data — consumers compact on the undo, so
				// the reused ids below never coexist with the
				// revoked ones.
				o.emitUndo()
			}
			t.Type = tuple.Insertion
			t.ID = o.lastStableID + 1
			o.extStable++
			o.lastStableID = t.ID
			o.extTentative = 0
		}
		o.Emit(t)
	case t.Type == tuple.Boundary:
		// Tentative boundaries (Src=1, footnote 5) always pass: they
		// bound the tentative stream. Stable boundaries are withheld
		// while diverged — the output is not stable through them.
		if t.Src == 1 || !o.diverged() {
			if t.Src != 1 {
				// A post-restore stable boundary must not overtake
				// the correction it belongs to: downstream heals on
				// boundary progress, and healing before the undo
				// arrives makes it reconcile against an arrival log
				// that still contains the revoked tentative suffix —
				// replaying poison into buckets no policy can flush
				// (found by the scenario fuzzer: a partition heal
				// racing a source reconnect). Emitting the armed
				// undo first also flips the downstream into
				// correcting mode, deferring its heal to REC_DONE.
				o.maybeUndo()
			}
			o.Emit(t)
		}
	case t.Type == tuple.RecDone:
		// The end of a correction sequence: if the reconciliation
		// produced no data at all but tentative output is outstanding,
		// the undo must still be emitted so downstream discards it.
		o.maybeUndo()
		o.recDone++
		o.Emit(t)
		if env := o.Env(); env != nil && env.Signal != nil {
			env.Signal(Signal{Kind: SigRecDone, Op: o.Name()})
		}
	case t.Type == tuple.Undo:
		// Fine-grained recovery (§8.2) pushes undos through the
		// diagram; forward them.
		o.Emit(t)
	}
}

// maybeUndo emits the single UNDO tuple that starts a correction sequence:
// it is armed by Restore and fires before the first subsequent data tuple
// (or at REC_DONE) if the external stream holds tentative tuples to revoke.
func (o *SOutput) maybeUndo() {
	if !o.undoArmed {
		return
	}
	o.undoArmed = false
	if o.extTentative == 0 {
		return
	}
	o.emitUndo()
}

// emitUndo revokes the outstanding tentative suffix of the external
// stream.
func (o *SOutput) emitUndo() {
	o.undos++
	o.extTentative = 0
	o.Emit(tuple.NewUndo(o.lastStableID))
}

// Reset clears all state, including the external-stream view: used by
// crash recovery (§4.5), where a restarted node rebuilds from empty state
// and re-derives the stream from the beginning of the upstream buffers.
func (o *SOutput) Reset() {
	*o = SOutput{Base: o.Base}
}

type soutputState struct{ SentStable uint64 }

// Checkpoint snapshots the internal stable-tuple counter only; external
// stream state is not part of the diagram state.
func (o *SOutput) Checkpoint() any { return soutputState{SentStable: o.sentStable} }

// Restore reinstates the internal counter and arms the undo: the next data
// tuple (a correction or fresh tentative data) revokes the external
// tentative suffix first.
func (o *SOutput) Restore(s any) {
	o.sentStable = s.(soutputState).SentStable
	o.undoArmed = true
}
