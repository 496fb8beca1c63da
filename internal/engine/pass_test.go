package engine

import (
	"fmt"
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// passRun is one engine of a plane comparison: it records every output
// tuple.
type passRun struct {
	sim *runtime.VirtualClock
	e   *Engine
	out []tuple.Tuple
}

func newPassRun(t *testing.T, perTuple bool) *passRun {
	r := &passRun{sim: runtime.NewVirtual()}
	r.e = newPlane(r.sim, chainDiagram(t), perTuple)
	r.e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { r.out = append(r.out, ts...) })
	return r
}

func (r *passRun) ingest(ts []tuple.Tuple) {
	r.e.Ingest("in", ts)
	r.sim.Run()
}

// maxFrame returns the largest capacity among the pooled frames, drained
// from the pool (a chain holds a handful; an empty pool hands out fresh
// 256-tuple frames, which are below any bound tested here).
func (r *passRun) maxFrame() int {
	m := 0
	for i := 0; i < 32; i++ {
		m = max(m, cap(r.e.frames.Get()))
	}
	return m
}

// replayBatch returns a clean batch of at least n tuples from stime from
// on: perBucket data tuples per 100 ms bucket and a boundary after every
// releaseEvery buckets, each of which releases that many buckets at once.
// Payloads alternate odd and even so the chain's filter keeps half.
func replayBatch(n int, from int64, perBucket, releaseEvery int) []tuple.Tuple {
	ts := make([]tuple.Tuple, 0, n+1)
	for k := 0; len(ts) < n; k++ {
		start := from + int64(k)*100*ms
		for i := 0; i < perBucket && len(ts) < n; i++ {
			ts = append(ts, tuple.NewInsertion(start+int64(i)*ms, int64(len(ts))))
		}
		if (k+1)%releaseEvery == 0 {
			ts = append(ts, tuple.NewBoundary(start+100*ms))
		}
	}
	return ts
}

func comparePlanes(t *testing.T, got, ref *passRun) {
	t.Helper()
	if got.e.Processed != ref.e.Processed {
		t.Fatalf("Processed: staged %d, per-tuple %d", got.e.Processed, ref.e.Processed)
	}
	if len(got.out) != len(ref.out) {
		t.Fatalf("output length: staged %d, per-tuple %d", len(got.out), len(ref.out))
	}
	for i := range got.out {
		if !tuple.Equal(got.out[i], ref.out[i]) {
			t.Fatalf("output %d: staged %v, per-tuple %v", i, got.out[i], ref.out[i])
		}
	}
}

// A clean batch three passes long, through a chain whose SUnion releases
// many buckets at a time, must come out of the staged plane byte-identical
// to the per-tuple plane — and no pooled stage frame may have grown past
// one pass plus one release.
func TestEngineStagedPassesMatchPerTupleOnLongBatch(t *testing.T) {
	const perBucket, releaseEvery = 37, 9
	got, ref := newPassRun(t, false), newPassRun(t, true)
	batch := replayBatch(3*stagedPass, 0, perBucket, releaseEvery)
	for _, r := range []*passRun{got, ref} {
		r.ingest(append([]tuple.Tuple(nil), batch...))
	}
	comparePlanes(t, got, ref)
	if len(got.out) < stagedPass {
		t.Fatalf("only %d tuples came out; the batch must reach the output in several passes", len(got.out))
	}
	if m, bound := got.maxFrame(), stagedPass+perBucket*releaseEvery; m > bound {
		t.Fatalf("a pooled frame grew to %d tuples, bound %d (one pass + one release)", m, bound)
	}
}

// The same through a restored SOutput: the undo is armed, so the SOutput
// declines the first pass, which reaches it per-tuple and emits the UNDO
// and the corrections; later passes are back on the fast path.
func TestEngineStagedPassesMatchPerTupleThroughRestoredSOutput(t *testing.T) {
	const perBucket, releaseEvery = 29, 7
	got, ref := newPassRun(t, false), newPassRun(t, true)
	prefix := replayBatch(500, 0, perBucket, 1)
	end := prefix[len(prefix)-1].STime + 100*ms
	prefix = append(prefix, tuple.NewBoundary(end))
	for _, r := range []*passRun{got, ref} {
		r.ingest(append([]tuple.Tuple(nil), prefix...))
		var snap *Snapshot
		r.e.RequestCheckpoint(func(s *Snapshot) { snap = s })
		// The failure: data without boundaries, released tentatively.
		r.e.SetPolicyAll(operator.PolicyProcess)
		r.ingest(replayBatch(300, end, perBucket, 1<<30))
		if !r.e.Diverged() {
			t.Fatal("the failure must have produced tentative output")
		}
		// Reconciliation: restore, then replay everything since the
		// checkpoint as one clean batch.
		r.e.Restore(snap)
		r.e.SetPolicyAll(operator.PolicyNone)
		r.ingest(replayBatch(3*stagedPass, end, perBucket, releaseEvery))
	}
	comparePlanes(t, got, ref)
	undos := 0
	for _, tp := range got.out {
		if tp.Type == tuple.Undo {
			undos++
		}
	}
	if undos != 1 {
		t.Fatalf("want exactly one UNDO from the restored SOutput, got %d", undos)
	}
	if m, bound := got.maxFrame(), stagedPass+perBucket*releaseEvery; m > bound {
		t.Fatalf("a pooled frame grew to %d tuples, bound %d (one pass + one release)", m, bound)
	}
}

// A policy flip between passes makes the SUnion decline every later pass,
// which then runs per-tuple from the SUnion on: on the staged plane every
// output before the flip comes in a frame of a whole pass and every one
// after it as a one-tuple frame. Output and Processed still match the
// reference.
func TestEngineStagedPassesRecheckPolicyGate(t *testing.T) {
	for _, flipAfter := range []int{1, 2} {
		t.Run(fmt.Sprintf("after=%d", flipAfter), func(t *testing.T) {
			got, ref := newPassRun(t, false), newPassRun(t, true)
			batch := replayBatch(3*stagedPass, 0, 41, 5)
			oneAt := -1    // the staged plane's first one-tuple frame
			wideAfter := 0 // its frames of more than one tuple after that
			for _, r := range []*passRun{got, ref} {
				r := r
				su := r.e.Diagram().Op("su").(*operator.SUnion)
				// Flip the policy the moment the chain's output has seen
				// flipAfter passes' worth of input, as a node controller
				// reacting to a signal would.
				flippedAt := -1
				r.e.OnOutputBatch(func(_ string, ts []tuple.Tuple) {
					if r == got {
						switch {
						case len(ts) == 1 && oneAt < 0:
							oneAt = len(r.out)
						case len(ts) > 1 && oneAt >= 0:
							wideAfter++
						}
					}
					r.out = append(r.out, ts...)
					if len(r.out) >= flipAfter*stagedPass/3 && flippedAt < 0 {
						flippedAt = len(r.out)
						r.e.SetPolicyAll(operator.PolicyProcess)
					}
				})
				r.ingest(append([]tuple.Tuple(nil), batch...))
				if flippedAt < 0 || flippedAt >= len(r.out)-stagedPass/3 || su.Policy() != operator.PolicyProcess {
					t.Fatalf("the policy must flip before the last pass (flipped at output %d of %d)", flippedAt, len(r.out))
				}
				if r == got && (oneAt != flippedAt || wideAfter > 0) {
					t.Fatalf("staged plane: first one-tuple frame at output %d, policy flipped at output %d, %d wider frames after it", oneAt, flippedAt, wideAfter)
				}
			}
			comparePlanes(t, got, ref)
		})
	}
}

// A SUnion that releases several buckets in one call loans the first
// bucket's array as the stage frame and has the rest appended to it. Once
// that would outgrow the loan, the collector moves it into a pool frame;
// growing the loan in place instead allocates a fresh array per dispatch
// that nothing recycles.
func TestEngineStagedReleaseDoesNotGrowLoans(t *testing.T) {
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec}))
	b.Add(operator.NewSOutput("out"))
	b.Connect("su", "out", 0)
	b.Input("in", "su", 0)
	b.Output("result", "out")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := runtime.NewVirtual()
	e := New(sim, d, Config{})
	released := 0
	e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { released += len(ts) })
	const rounds, buckets, perBucket = 40, 10, 50
	var batches [][]tuple.Tuple
	for r := 0; r < rounds; r++ {
		batches = append(batches, replayBatch(buckets*perBucket, int64(r*buckets)*100*ms, perBucket, buckets))
	}
	next := 0
	dispatch := func() {
		e.Ingest("in", batches[next])
		next++
		sim.Run()
	}
	for next < rounds/2 {
		dispatch()
	}
	if allocs := testing.AllocsPerRun(rounds/2-1, dispatch); allocs != 0 {
		t.Fatalf("a dispatch releasing %d buckets at once allocates %.1f times, want 0", buckets, allocs)
	}
	if released < rounds*buckets*perBucket/2 {
		t.Fatalf("only %d tuples released", released)
	}
}
