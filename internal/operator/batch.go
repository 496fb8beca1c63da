package operator

import "borealis/internal/tuple"

// BatchProcessor is implemented by operators that can consume a whole
// batch of tuples in one call. The engine's staged batch data plane uses
// it where it pays: an implementation may elide per-tuple bookkeeping that
// a sequence of Process calls would repeat (SUnion skips the pump scan
// after inserts that provably cannot release a bucket).
//
// ProcessBatch must be exactly equivalent to calling Process(port, t) for
// each tuple in order. An implementation that cannot guarantee that under
// its current state (e.g. a policy that arms timers mid-batch) returns
// false without consuming anything; the caller then falls back to
// per-tuple Process calls.
type BatchProcessor interface {
	ProcessBatch(port int, ts []tuple.Tuple) bool
}

// CleanPreserving marks BatchProcessors with the invariant: when
// ProcessBatch accepts a frame without tentative tuples, it emits none.
// The staged dispatcher then skips scanning the stage's output for the
// tuple that raises the node's divergence flag — the input was proven free
// of them, inductively from the dispatch's entry scan. The invariant only
// covers accepting ProcessBatch calls; a declined frame runs per-tuple
// from that stage on and is never scanned.
type CleanPreserving interface{ CleanPreserving() }

// MutatesBatch marks BatchProcessors whose ProcessBatch may rewrite the
// input slice in place (compacting it, reassigning IDs or rewriting
// payloads) and re-emit it through EmitLoan. A caller must hand such an
// operator only frames the caller owns — never a slice some other party
// will read again, like an arrival-log segment. The engine's staged
// dispatcher checks this marker on a chain's first stage and copies the
// ingested batch into a pool frame when it is set.
type MutatesBatch interface{ MutatesBatch() }

// ProcessBatch consumes a batch on the given port in one call. It is the
// SUnion hot path of the batch data plane: under PolicyNone/PolicySuspend
// (the steady state of a healthy node) a stable data insert can only make a
// bucket emittable by raising a boundary watermark, so the per-tuple pump
// scan that Process runs after every insert is skipped unless the state
// says pumping could emit something. Boundaries still pump immediately —
// the cursor they may advance decides whether later tuples in the same
// batch are late.
//
// Under the tentative-emitting policies (PolicyProcess/PolicyDelay) the
// pump arms flush timers whose heap order depends on tuple-by-tuple
// interleaving across operators, so the SUnion declines and the caller
// runs the exact per-tuple path.
func (s *SUnion) ProcessBatch(port int, ts []tuple.Tuple) bool {
	// The engine consumed any frame loaned out by the previous dispatch
	// before starting this one; the parked bucket is free to recycle. This
	// runs before the policy gate so a policy flip cannot strand the loan.
	s.reclaimLoan()
	tuple.CheckNotReturned("SUnion.ProcessBatch", ts)
	if s.policy != PolicyNone && s.policy != PolicySuspend {
		return false
	}
	for i := 0; i < len(ts); {
		t := ts[i]
		switch {
		case t.Type == tuple.Insertion:
			start := s.bucketStart(t.STime)
			if start < s.cursor {
				s.droppedLate++
				i++
				continue
			}
			b := s.getBucket(start)
			if len(b.Tuples) == 0 {
				b.FirstArrival = s.Now()
			}
			t.Src = int32(port)
			b.Tuples = append(b.Tuples, t)
			if s.pumpNeeded() {
				s.pump()
			}
			i++
			// Same-bucket run: inserts change neither the boundary
			// watermarks nor the cursor, so after the pump check above the
			// per-insert pump is provably a no-op until the next boundary.
			// The rest of the run lands in one bulk append — unless the
			// pump just emitted this bucket (cursor passed start), which
			// makes the rest of the run late and sends it back through the
			// per-tuple path above to be dropped one by one.
			if start >= s.cursor {
				end := start + s.cfg.BucketSize
				j := i
				for j < len(ts) && ts[j].Type == tuple.Insertion &&
					ts[j].STime >= start && ts[j].STime < end {
					j++
				}
				if j > i {
					n := len(b.Tuples)
					b.Tuples = append(b.Tuples, ts[i:j]...)
					for k := n; k < len(b.Tuples); k++ {
						b.Tuples[k].Src = int32(port)
					}
					i = j
				}
			}
		case t.Type == tuple.Boundary && t.Src == 0:
			if t.STime > s.bounds[port] {
				s.bounds[port] = t.STime
				s.pump()
			}
			i++
		default:
			// Tentative data, tentative boundaries, undo, rec_done: rare
			// on this path — take the reference implementation in place
			// so ordering is preserved.
			s.Process(port, t)
			i++
		}
	}
	return true
}

// CleanPreserving: under the policies it accepts a batch in, SUnion emits
// only buckets without tentative content, boundaries and REC_DONE.
func (s *SUnion) CleanPreserving() {}

// pumpNeeded reports whether pump() could change state after a stable data
// insert under PolicyNone/PolicySuspend. The insert changed neither the
// boundary watermarks nor the cursor, so pumping does something only if
// the bucket at the cursor was already stable-covered (including the case
// where RevokeTentative freed it since the last pump), or the punctuation
// watermark min(stable, cursor) has not been forwarded yet. Timers need no
// attention: under these policies every pump exit stops the flush timer,
// so none is ever pending here.
func (s *SUnion) pumpNeeded() bool {
	stable := s.stableThrough()
	if stable >= s.cursor+s.cfg.BucketSize {
		return true
	}
	wm := stable
	if s.cursor < wm {
		wm = s.cursor
	}
	return wm > s.sentBound
}

// ProcessBatch filters a batch in one call, compacting the surviving
// tuples toward the front of the frame itself and loaning the shortened
// frame downstream — zero copies, zero staging. Filter is type-agnostic —
// control tuples pass through exactly as in Process — so no state
// precondition gates the fast path.
func (f *Filter) ProcessBatch(_ int, ts []tuple.Tuple) bool {
	f.EmitLoan(ts[:f.compact(ts)])
	return true
}

// MutatesBatch: ProcessBatch compacts the input frame in place.
func (f *Filter) MutatesBatch() {}

// CleanPreserving: Filter forwards a subset of its input tuples unchanged.
func (f *Filter) CleanPreserving() {}

// ProcessBatch maps a batch in one call by rewriting each data tuple's
// payload in the frame itself and loaning the frame downstream — no copy,
// no staging. The frame is the map's own (MutatesBatch), its inline values
// are copies, and a long payload is copied before it is written, so logs
// and buffers upstream are unaffected. Map is stateless and type-agnostic,
// so no precondition gates the fast path.
func (m *Map) ProcessBatch(_ int, ts []tuple.Tuple) bool {
	m.apply(ts)
	m.EmitLoan(ts)
	return true
}

// MutatesBatch: ProcessBatch rewrites the payloads in the input frame.
func (m *Map) MutatesBatch() {}

// CleanPreserving: Map never changes a tuple's type.
func (m *Map) CleanPreserving() {}

// ProcessBatch runs SOutput's steady-state fast path: when the node is not
// diverged, no undo is armed or outstanding, and the dup-drop region of a
// restore has been passed (sentStable ≥ extStable), every stable insertion
// reduces to "assign the next stable id and count it" and every stable
// boundary passes through — so the IDs are written into the frame itself
// and the frame is loaned downstream whole, copying nothing. Any other
// tuple type flushes the conforming prefix (copied to scratch, so the
// reference path's emissions cannot grow into the region still being
// read) and hands the remainder to Process, which re-reads state per
// tuple; outside the steady state the whole batch is declined.
//
// The up-front divergence check holds for the whole call: the flag only
// transitions on a tentative emission, and this path emits only stable
// tuples.
func (o *SOutput) ProcessBatch(port int, ts []tuple.Tuple) bool {
	if o.diverged() || o.undoArmed || o.extTentative != 0 || o.sentStable < o.extStable {
		return false
	}
	for i := range ts {
		t := &ts[i]
		switch {
		case t.Type == tuple.Insertion:
			o.sentStable++
			t.ID = o.lastStableID + 1
			o.extStable++
			o.lastStableID = t.ID
		case t.Type == tuple.Boundary && t.Src == 0:
			// passes through as-is
		default:
			out := append(o.scratch[:0], ts[:i]...)
			o.EmitLoan(out)
			o.scratch = out[:0]
			for ; i < len(ts); i++ {
				o.Process(port, ts[i])
				o.raised = o.raised || ts[i].Type == tuple.Tentative
			}
			o.raised = false
			return true
		}
	}
	o.EmitLoan(ts)
	return true
}

// MutatesBatch: ProcessBatch assigns stable IDs in the input frame.
func (o *SOutput) MutatesBatch() {}

// CleanPreserving: the accepting fast path emits the input tuples with
// stable IDs assigned, types untouched.
func (o *SOutput) CleanPreserving() {}
