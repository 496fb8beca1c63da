package engine

import (
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// lentBatch copies ts into an array lent from p, as the TCP read loop does.
func lentBatch(p *tuple.LoanPool, ts ...tuple.Tuple) []tuple.Tuple {
	return append(p.Lend(len(ts)), ts...)
}

// TestLentBatchReturnedAfterDispatch checks that a lent batch goes back to
// its pool exactly once, after its dispatch: never while it is queued or in
// service, where HoldsTentative and kick's FreshCount still read it.
func TestLentBatchReturnedAfterDispatch(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100}) // 10 ms per tuple
	var pool tuple.LoanPool
	var returnedAtOutput []uint64
	e.OnOutput(func(string, tuple.Tuple) { returnedAtOutput = append(returnedAtOutput, pool.Returned()) })
	e.IngestLent("in1", lentBatch(&pool, tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100*ms)), &pool)
	e.IngestLent("in2", lentBatch(&pool, tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100*ms)), &pool)
	if e.QueueLen() != 1 || e.Idle() || pool.Returned() != 0 {
		t.Fatalf("after ingest: queue %d, idle %v, returned %d; want one queued, one in service, none returned",
			e.QueueLen(), e.Idle(), pool.Returned())
	}
	e.HoldsTentative() // reads both batches
	sim.RunFor(5 * ms)
	if pool.Returned() != 0 {
		t.Fatal("a batch came back while in service")
	}
	sim.RunFor(10 * ms) // the first batch's 10 ms of service are over
	if pool.Returned() != 1 {
		t.Fatalf("returned %d after the first dispatch, want 1", pool.Returned())
	}
	sim.Run()
	if pool.Returned() != 2 {
		t.Fatalf("returned %d after both dispatches, want 2", pool.Returned())
	}
	// The merge emits both tuples while dispatching the second batch: at
	// that moment only the first batch had come back.
	if len(returnedAtOutput) == 0 || returnedAtOutput[0] != 1 {
		t.Fatalf("returned counts seen at output %v, want the second batch still out", returnedAtOutput)
	}
	e.Ingest("in1", []tuple.Tuple{tuple.NewBoundary(300 * ms)})
	sim.Run()
	if pool.Returned() != 2 {
		t.Fatalf("an unlent batch moved the pool's count to %d", pool.Returned())
	}
}

// TestRestoreDropsLentBatches checks that batches Restore discards —
// queued or in service — never go back to their pool.
func TestRestoreDropsLentBatches(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100})
	var snap *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { snap = s })
	var pool tuple.LoanPool
	e.IngestLent("in1", lentBatch(&pool, tuple.NewInsertion(10*ms, 1)), &pool)
	e.IngestLent("in2", lentBatch(&pool, tuple.NewInsertion(20*ms, 2)), &pool)
	e.Restore(snap)
	sim.Run()
	if pool.Returned() != 0 || e.Processed != 0 {
		t.Fatalf("after Restore: returned %d, processed %d; want both batches dropped", pool.Returned(), e.Processed)
	}
}

// segmentBatch copies each piece into a 16-tuple segment lent from p, as
// an arrival log hands over its runs: the piece at the segment's start,
// zero past it.
func segmentBatch(p *tuple.LoanPool, pieces ...[]tuple.Tuple) [][]tuple.Tuple {
	out := make([][]tuple.Tuple, len(pieces))
	for i, ts := range pieces {
		out[i] = append(p.Lend(16), ts...)
	}
	return out
}

// TestChunksReturnedClearedAfterDispatch checks that every segment of a
// chunked batch goes back to its pool once, cleared, after the batch's
// dispatch; that a batch Restore discards keeps its segments; and that a
// batch without tuples gives them back at once.
func TestChunksReturnedClearedAfterDispatch(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100}) // 10 ms per tuple
	var snap *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { snap = s })
	var pool tuple.LoanPool
	chunks := segmentBatch(&pool,
		[]tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewInsertion(20*ms, 2)},
		[]tuple.Tuple{tuple.NewBoundary(100 * ms)})
	e.IngestChunks("in1", chunks, &pool)
	sim.RunFor(15 * ms)
	if pool.Returned() != 0 {
		t.Fatalf("%d segments came back while the batch was in service", pool.Returned())
	}
	sim.Run()
	if pool.Returned() != 2 || e.Processed != 3 {
		t.Fatalf("after the dispatch: %d segments returned, %d tuples processed; want 2 and 3", pool.Returned(), e.Processed)
	}
	for _, seg := range chunks {
		if tuple.Poisoning() {
			break // a returned segment holds sentinels
		}
		for i, tp := range seg[:cap(seg)] {
			if tp != (tuple.Tuple{}) {
				t.Fatalf("slot %d of a returned segment holds %v", i, tp)
			}
		}
	}
	e.IngestChunks("in1", segmentBatch(&pool, []tuple.Tuple{tuple.NewInsertion(110*ms, 3)}), &pool)
	e.Restore(snap)
	sim.Run()
	if pool.Returned() != 2 {
		t.Fatalf("a discarded batch's segment came back: %d returned", pool.Returned())
	}
	e.IngestChunks("in1", segmentBatch(&pool, nil, nil), &pool)
	if pool.Returned() != 4 || e.QueueLen() != 0 {
		t.Fatalf("an empty batch: %d returned, queue %d; want its 2 segments back and nothing queued", pool.Returned(), e.QueueLen())
	}
}
