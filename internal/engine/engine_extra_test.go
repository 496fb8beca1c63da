package engine

import (
	"testing"

	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

func TestEngineFreshCountCostModel(t *testing.T) {
	// Tuples behind the input SUnion's cursor are dropped in O(1) and
	// must not consume service capacity.
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 1000}) // 1ms/tuple
	// Advance the cursor: boundaries cover [0, 1s).
	e.Ingest("in1", []tuple.Tuple{tuple.NewBoundary(1 * sec)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewBoundary(1 * sec)})
	sim.Run()
	start := sim.Now()
	// 1000 stale tuples: all behind the cursor.
	stale := make([]tuple.Tuple, 1000)
	for i := range stale {
		stale[i] = tuple.NewInsertion(int64(i)*ms/2, 1)
	}
	e.Ingest("in1", stale)
	sim.Run()
	if sim.Now()-start > 50*ms {
		t.Fatalf("stale batch billed full service: took %d ms", (sim.Now()-start)/ms)
	}
	// 1000 fresh tuples cost real service time.
	fresh := make([]tuple.Tuple, 1000)
	for i := range fresh {
		fresh[i] = tuple.NewInsertion(2*sec+int64(i)*ms/2, 1)
	}
	start = sim.Now()
	e.Ingest("in1", fresh)
	sim.Run()
	if sim.Now()-start < 900*ms {
		t.Fatalf("fresh batch under-billed: took %d ms", (sim.Now()-start)/ms)
	}
}

func TestEngineResetToPristine(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	var c capture
	c.bind(sim, e)
	var pristine *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { pristine = s })
	// Run some traffic, including tentative output.
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
	e.SetPolicyAll(operator.PolicyProcess)
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(150*ms, 3)})
	sim.Run()
	if !e.Diverged() {
		t.Fatal("setup: engine should be diverged")
	}
	lastID := c.data()[len(c.data())-1].ID

	// Reset: everything starts over, including SOutput's external ids.
	e.ResetToPristine(pristine)
	e.SetPolicyAll(operator.PolicyNone)
	c.tuples = nil
	if e.Diverged() {
		t.Fatal("reset engine must not be diverged")
	}
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
	sim.Run()
	got := c.data()
	if len(got) != 2 {
		t.Fatalf("reset engine should reprocess from scratch: %v", got)
	}
	if got[0].ID != 1 {
		t.Fatalf("SOutput ids must restart at 1 after reset (was %d before, got %d)", lastID, got[0].ID)
	}
	if got[0].Type != tuple.Insertion || got[1].Type != tuple.Insertion {
		t.Fatal("re-derived output must be stable")
	}
}

func TestEngineProcessedCounter(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(1, 1), tuple.NewBoundary(100)})
	sim.Run()
	if e.Processed != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed)
	}
}

func TestEngineOldestPendingArrival(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	sim.RunUntil(1 * sec)
	if got := e.OldestPendingArrival(); got != 1*sec {
		t.Fatalf("idle engine should report now, got %d", got)
	}
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1)})
	sim.RunUntil(2 * sec)
	if got := e.OldestPendingArrival(); got != 1*sec {
		t.Fatalf("oldest pending arrival = %d, want %d", got, 1*sec)
	}
}

// The engine has one output callback: OnOutput and OnOutputBatch each
// replace it, the last registration wins, and whichever it is sees every
// output tuple — the timer flush of a delaying SUnion included.
func TestEngineOutputLastRegistrationWins(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	perTuple, framed := 0, 0
	e.OnOutput(func(string, tuple.Tuple) { perTuple++ })
	e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { framed += len(ts) })
	feed := func(from int64) {
		e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(from+10*ms, 1), tuple.NewBoundary(from + 100*ms)})
		e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(from+20*ms, 2), tuple.NewBoundary(from + 100*ms)})
		sim.Run()
	}
	feed(0)
	e.SetPolicyAll(operator.PolicyDelay)
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(150*ms, 3)})
	sim.Run() // the delay timer flushes the bucket tentatively
	if perTuple != 0 || framed < 4 {
		t.Fatalf("after OnOutputBatch: OnOutput saw %d tuples, OnOutputBatch %d", perTuple, framed)
	}
	e.OnOutput(func(string, tuple.Tuple) { perTuple++ })
	before := framed
	e.SetPolicyAll(operator.PolicyNone)
	feed(200 * ms)
	if framed != before || perTuple == 0 {
		t.Fatalf("after OnOutput: OnOutputBatch saw %d more tuples, OnOutput %d", framed-before, perTuple)
	}
}
