package engine

import (
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

// mergeDiagram builds: in1, in2 → SUnion(merge) → SOutput("result").
func mergeDiagram(t *testing.T, delay int64) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("merge", operator.SUnionConfig{
		Ports: 2, BucketSize: 100 * ms, Delay: delay,
	}))
	b.Add(operator.NewSOutput("out"))
	b.Connect("merge", "out", 0)
	b.Input("in1", "merge", 0)
	b.Input("in2", "merge", 1)
	b.Output("result", "out")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type capture struct {
	tuples  []tuple.Tuple
	times   []int64
	signals []operator.Signal
}

func (c *capture) bind(sim *runtime.VirtualClock, e *Engine) {
	e.OnOutput(func(_ string, t tuple.Tuple) {
		c.tuples = append(c.tuples, t)
		c.times = append(c.times, sim.Now())
	})
	e.OnSignal(func(s operator.Signal) { c.signals = append(c.signals, s) })
}

func (c *capture) data() []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range c.tuples {
		if t.IsData() {
			out = append(out, t)
		}
	}
	return out
}

func (c *capture) ofType(ty tuple.Type) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range c.tuples {
		if t.Type == ty {
			out = append(out, t)
		}
	}
	return out
}

func TestEngineEndToEndStableFlow(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	var c capture
	c.bind(sim, e)
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
	sim.Run()
	got := c.data()
	if len(got) != 2 || got[0].Field(0) != 1 || got[1].Field(0) != 2 {
		t.Fatalf("stable flow wrong: %v", got)
	}
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("SOutput ids wrong: %v", got)
	}
	if e.Diverged() {
		t.Fatal("stable flow must not diverge")
	}
}

func TestEngineCapacityDelaysDispatch(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 1000}) // 1ms/tuple
	var c capture
	c.bind(sim, e)
	batch := make([]tuple.Tuple, 0, 100)
	for i := 0; i < 100; i++ {
		batch = append(batch, tuple.NewInsertion(int64(i)*ms, int64(i)))
	}
	batch = append(batch, tuple.NewBoundary(100*ms))
	e.Ingest("in1", batch)
	e.Ingest("in2", []tuple.Tuple{tuple.NewBoundary(100 * ms)})
	sim.Run()
	// 101 tuples at 1ms each ≈ 101ms service for the first batch.
	if sim.Now() < 100*ms {
		t.Fatalf("capacity model not applied: finished at %d", sim.Now())
	}
	if len(c.data()) != 100 {
		t.Fatalf("want 100 tuples, got %d", len(c.data()))
	}
}

func TestEngineUnknownStreamPanics(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Ingest("nope", []tuple.Tuple{tuple.NewInsertion(1, 1)})
}

func TestEngineDivergenceOnTentativeFlush(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	var c capture
	c.bind(sim, e)
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1)})
	e.SetPolicyAll(operator.PolicyProcess)
	sim.Run() // suspension expires, tentative flush
	if !e.Diverged() {
		t.Fatal("tentative flush must mark the engine diverged")
	}
	got := c.data()
	if len(got) != 1 || got[0].Type != tuple.Tentative {
		t.Fatalf("want tentative output: %v", got)
	}
	if len(c.signals) == 0 || c.signals[0].Kind != operator.SigUpFailure {
		t.Fatalf("UP_FAILURE signal missing: %v", c.signals)
	}
}

func TestEngineCheckpointRestoreReplayCorrects(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{})
	var c capture
	c.bind(sim, e)

	// Stable prefix on both inputs.
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
	sim.Run()

	// Failure on in2: checkpoint, then in1 data keeps arriving.
	var snap *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { snap = s })
	if snap == nil {
		t.Fatal("idle engine must checkpoint immediately")
	}
	e.SetPolicyAll(operator.PolicyProcess)
	log := []tuple.Tuple{tuple.NewInsertion(110*ms, 3), tuple.NewBoundary(200 * ms)}
	e.Ingest("in1", log)
	sim.Run() // tentative flush of bucket [100,200) with only in1 data
	tent := c.ofType(tuple.Tentative)
	if len(tent) != 1 || tent[0].Field(0) != 3 {
		t.Fatalf("expected one tentative tuple: %v", tent)
	}

	// Heal: restore, replay logs of both inputs (in2's missing data
	// arrives in the replay), rec-done when drained.
	c.tuples = nil
	e.Restore(snap)
	e.SetPolicyAll(operator.PolicyNone)
	e.Ingest("in1", log)
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(120*ms, 4), tuple.NewBoundary(200 * ms)})
	e.ScheduleRecDone()
	sim.Run()

	out := c.tuples
	// Expect: UNDO(last stable id), stable corrections 3 and 4, REC_DONE.
	if len(out) < 4 {
		t.Fatalf("correction sequence too short: %v", out)
	}
	if out[0].Type != tuple.Undo || out[0].ID != 2 {
		t.Fatalf("undo must revoke back to stable id 2: %v", out[0])
	}
	var stable []tuple.Tuple
	for _, tp := range out {
		if tp.Type == tuple.Insertion {
			stable = append(stable, tp)
		}
	}
	if len(stable) != 2 || stable[0].Field(0) != 3 || stable[1].Field(0) != 4 {
		t.Fatalf("corrections wrong: %v", stable)
	}
	if rd := c.ofType(tuple.RecDone); len(rd) != 1 {
		t.Fatalf("want exactly one REC_DONE: %v", out)
	}
	if e.Diverged() {
		t.Fatal("engine must be consistent after reconciliation")
	}
	var gotSig bool
	for _, s := range c.signals {
		if s.Kind == operator.SigRecDone {
			gotSig = true
		}
	}
	if !gotSig {
		t.Fatal("REC_DONE signal to CM missing")
	}
}

func TestEngineCheckpointWaitsForPreRequestBatches(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 1000})
	var c capture
	c.bind(sim, e)
	// A slow batch is in flight when the checkpoint is requested: the
	// snapshot must include its effects.
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	var snap *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { snap = s })
	if snap != nil {
		t.Fatal("checkpoint must wait for the in-flight batch")
	}
	sim.Run()
	if snap == nil {
		t.Fatal("checkpoint never taken")
	}
	// Restore and complete in2: the pre-checkpoint in1 tuple must
	// survive the rollback (it was captured in the snapshot).
	e.Restore(snap)
	e.Ingest("in2", []tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
	sim.Run()
	got := c.data()
	if len(got) != 2 {
		t.Fatalf("pre-checkpoint batch lost across restore: %v", got)
	}
}

func TestEngineRestoreDiscardsQueuedWork(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100}) // slow: 10ms/tuple
	var c capture
	c.bind(sim, e)
	var snap *Snapshot
	e.RequestCheckpoint(func(s *Snapshot) { snap = s })
	// Post-checkpoint arrivals, still queued when we restore.
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1)})
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(20*ms, 2)})
	e.Restore(snap)
	// Replay only the first logged batch; the discarded queue must not
	// resurface the second.
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.Ingest("in2", []tuple.Tuple{tuple.NewBoundary(100 * ms)})
	sim.Run()
	got := c.data()
	if len(got) != 1 || got[0].Field(0) != 1 {
		t.Fatalf("queued work not discarded on restore: %v", got)
	}
}

func TestEngineRecDoneWaitsForQueueDrain(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100})
	var c capture
	c.bind(sim, e)
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
	e.ScheduleRecDone()
	if len(c.ofType(tuple.RecDone)) != 0 {
		t.Fatal("rec_done must wait for the queue to drain")
	}
	e.Ingest("in2", []tuple.Tuple{tuple.NewBoundary(100 * ms)})
	sim.Run()
	rd := c.ofType(tuple.RecDone)
	if len(rd) != 1 {
		t.Fatalf("want one rec_done after drain: %v", c.tuples)
	}
	// Data must precede the marker.
	if len(c.data()) != 1 || c.tuples[len(c.tuples)-1].Type != tuple.RecDone {
		t.Fatalf("rec_done must come last: %v", c.tuples)
	}
}

func TestEngineIdleCallback(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 1000})
	idles := 0
	e.OnIdle(func() { idles++ })
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1)})
	sim.Run()
	if idles == 0 {
		t.Fatal("idle callback never fired")
	}
}

func TestEngineDoubleCheckpointPanics(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 10})
	e.Ingest("in1", []tuple.Tuple{tuple.NewInsertion(10*ms, 1)})
	e.RequestCheckpoint(func(*Snapshot) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping checkpoint requests")
		}
	}()
	e.RequestCheckpoint(func(*Snapshot) {})
}
