package operator

import (
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// loanCollector is a collector whose env offers the bulk emission path,
// with EmitLoan accepting or declining loans on command. It records every
// loaned slice so tests can assert aliasing.
type loanCollector struct {
	collector
	takeLoans bool
	loans     [][]tuple.Tuple
}

func attachLoan(op Operator, sim *runtime.VirtualClock, takeLoans bool) *loanCollector {
	c := &loanCollector{takeLoans: takeLoans}
	c.sim = sim
	e := c.env()
	e.EmitLoan = func(ts []tuple.Tuple) bool {
		c.out = append(c.out, ts...)
		if c.takeLoans {
			c.loans = append(c.loans, ts)
		}
		return c.takeLoans
	}
	op.Attach(e)
	return c
}

func sameTuples(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emission count differs: got %d, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID ||
			got[i].Src != want[i].Src || !tuple.SameValue(got[i], want[i]) {
			t.Fatalf("emission %d differs: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// cloneBatch deep-enough copies a batch for the in-place operators: the
// tuple structs are copied; payload arrays stay shared, which is exactly
// what the MutatesBatch contract allows (payloads are never written
// through).
func cloneBatch(ts []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ts))
	copy(out, ts)
	return out
}

func TestFilterProcessBatchMatchesProcess(t *testing.T) {
	in := []tuple.Tuple{
		tuple.NewInsertion(10, 1),
		tuple.NewInsertion(20, 2),
		tuple.NewBoundary(25),
		tuple.NewInsertion(30, 3),
		tuple.NewTentative(40, 4),
		tuple.NewInsertion(50, 5),
	}
	pred := func(t tuple.Tuple) bool { return t.Field(0)%2 == 1 }

	ref := NewFilter("f", pred)
	rc := attach(ref, nil)
	for _, tp := range in {
		ref.Process(0, tp)
	}

	fast := NewFilter("f", pred)
	fc := attachLoan(fast, nil, true)
	frame := cloneBatch(in)
	if !fast.ProcessBatch(0, frame) {
		t.Fatal("Filter.ProcessBatch must always accept")
	}
	sameTuples(t, fc.out, rc.out)
	if fast.passed != ref.passed {
		t.Fatalf("passed counter differs: %d vs %d", fast.passed, ref.passed)
	}
	// In-place contract: the loaned slice is the input frame, compacted.
	if len(fc.loans) != 1 || &fc.loans[0][0] != &frame[0] {
		t.Fatal("Filter.ProcessBatch must loan the compacted input frame itself")
	}
}

func TestMapProcessBatchMatchesProcessWithoutWritingPayloads(t *testing.T) {
	payload := []int64{7}
	in := []tuple.Tuple{
		tuple.Tuple{Type: tuple.Insertion, STime: 10}.WithData(payload...),
		tuple.NewBoundary(15),
		tuple.NewTentative(20, 3),
	}
	fn := func(d []int64) []int64 { return []int64{d[0] * 2} }

	ref := NewMap("m", fn)
	rc := attach(ref, nil)
	for _, tp := range in {
		ref.Process(0, tp)
	}

	fast := NewMap("m", fn)
	fc := attachLoan(fast, nil, true)
	frame := cloneBatch(in)
	if !fast.ProcessBatch(0, frame) {
		t.Fatal("Map.ProcessBatch must always accept")
	}
	sameTuples(t, fc.out, rc.out)
	if payload[0] != 7 {
		t.Fatalf("Map.ProcessBatch wrote through a shared payload: %v", payload)
	}
	if len(fc.loans) != 1 || &fc.loans[0][0] != &frame[0] {
		t.Fatal("Map.ProcessBatch must loan the input frame itself")
	}
}

func TestSOutputProcessBatchSteadyMatchesProcess(t *testing.T) {
	in := []tuple.Tuple{
		tuple.NewInsertion(10, 1),
		tuple.NewBoundary(15),
		tuple.NewInsertion(20, 2),
		tuple.NewInsertion(30, 3),
	}
	ref := NewSOutput("o")
	rc := attach(ref, nil)
	for _, tp := range in {
		ref.Process(0, tp)
	}

	fast := NewSOutput("o")
	fc := attachLoan(fast, nil, true)
	if !fast.ProcessBatch(0, cloneBatch(in)) {
		t.Fatal("SOutput.ProcessBatch must accept in the steady state")
	}
	sameTuples(t, fc.out, rc.out)
	if fast.LastStableID() != ref.LastStableID() {
		t.Fatalf("lastStableID differs: %d vs %d", fast.LastStableID(), ref.LastStableID())
	}
}

func TestSOutputProcessBatchRarePathMatchesProcess(t *testing.T) {
	// A tentative tuple mid-batch forces the flush-prefix-then-per-tuple
	// path; everything after it goes through the reference implementation.
	// Per tuple, the engine raises the divergence flag as the tentative
	// tuple is emitted (the reference env raises it); a collected batch
	// call sees it raised only afterwards (the batch env never raises it),
	// so the batch path must read it as raised from that tuple on.
	in := []tuple.Tuple{
		tuple.NewInsertion(10, 1),
		tuple.NewInsertion(20, 2),
		tuple.NewTentative(30, 3),
		tuple.NewInsertion(40, 4),
	}
	ref := NewSOutput("o")
	rc := attach(ref, nil)
	rc.raise = true
	for _, tp := range in {
		ref.Process(0, tp)
	}
	if got := rc.ofType(tuple.Tentative); len(got) != 2 {
		t.Fatalf("the insertion after the tentative tuple must leave tentative: %v", rc.out)
	}

	fast := NewSOutput("o")
	fc := attachLoan(fast, nil, true)
	if !fast.ProcessBatch(0, cloneBatch(in)) {
		t.Fatal("rare path still accepts the batch")
	}
	if fc.divergd || fast.diverged() {
		t.Fatal("the batch call must leave no divergence behind")
	}
	sameTuples(t, fc.out, rc.out)
	// The flushed prefix must NOT alias the input frame: the reference
	// path's later emissions append to the collector while the loan is
	// outstanding, so the prefix is copied to scratch first.
	if len(fc.loans) == 0 {
		t.Fatal("expected the conforming prefix to be loaned")
	}
}

func TestSOutputProcessBatchDeclinesWhenDiverged(t *testing.T) {
	fast := NewSOutput("o")
	fc := attachLoan(fast, nil, true)
	fc.divergd = true
	if fast.ProcessBatch(0, []tuple.Tuple{tuple.NewInsertion(10, 1)}) {
		t.Fatal("SOutput.ProcessBatch must decline while diverged")
	}
	if len(fc.out) != 0 {
		t.Fatalf("declined batch must consume nothing, emitted %v", fc.out)
	}
}

func TestSUnionProcessBatchMatchesProcess(t *testing.T) {
	// Inserts spanning two buckets with interleaved boundaries, a late
	// tuple, and a same-bucket run that exercises the bulk append.
	in := []tuple.Tuple{
		tuple.NewInsertion(10*ms, 1),
		tuple.NewInsertion(20*ms, 2),
		tuple.NewInsertion(30*ms, 3),
		tuple.NewInsertion(110*ms, 4),
		tuple.NewBoundary(100 * ms),  // releases bucket 0, makes later <100ms late
		tuple.NewInsertion(50*ms, 5), // late: dropped
		tuple.NewInsertion(120*ms, 6),
		tuple.NewInsertion(130*ms, 7),
		tuple.NewBoundary(200 * ms),
	}
	run := func(batch bool) ([]tuple.Tuple, uint64) {
		sim := runtime.NewVirtual()
		s := NewSUnion("su", SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec})
		c := attachLoan(s, sim, false)
		if batch {
			if !s.ProcessBatch(0, cloneBatch(in)) {
				t.Fatal("SUnion.ProcessBatch must accept under PolicyNone")
			}
		} else {
			for _, tp := range in {
				s.Process(0, tp)
			}
		}
		return c.out, s.DroppedLate()
	}
	ref, refLate := run(false)
	got, gotLate := run(true)
	sameTuples(t, got, ref)
	if gotLate != refLate {
		t.Fatalf("droppedLate differs: %d vs %d", gotLate, refLate)
	}
}

func TestSUnionProcessBatchDeclinesUnderTentativePolicies(t *testing.T) {
	for _, p := range []DelayPolicy{PolicyProcess, PolicyDelay} {
		sim := runtime.NewVirtual()
		s := NewSUnion("su", SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec})
		attachLoan(s, sim, false)
		s.SetPolicy(p)
		if s.ProcessBatch(0, []tuple.Tuple{tuple.NewInsertion(10*ms, 1)}) {
			t.Fatalf("SUnion.ProcessBatch must decline under %v", p)
		}
	}
}

func TestSUnionLoanedBucketParkedUntilNextBatch(t *testing.T) {
	sim := runtime.NewVirtual()
	s := NewSUnion("su", SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec})
	c := attachLoan(s, sim, true)

	if !s.ProcessBatch(0, []tuple.Tuple{
		tuple.NewInsertion(10*ms, 1),
		tuple.NewBoundary(100 * ms),
	}) {
		t.Fatal("batch not accepted")
	}
	if len(c.loans) != 1 {
		t.Fatalf("stable bucket emission must be loaned, got %d loans", len(c.loans))
	}
	if s.loaned == nil {
		t.Fatal("taken loan must park the bucket instead of freeing it")
	}
	loanedArr := &c.loans[0][0]
	if &s.loaned.Tuples[0] != loanedArr {
		t.Fatal("parked bucket must back the loaned slice")
	}

	// The next ProcessBatch reclaims the loan before touching any input,
	// and the recycled bucket may then be refilled safely.
	if !s.ProcessBatch(0, []tuple.Tuple{tuple.NewInsertion(110*ms, 2)}) {
		t.Fatal("batch not accepted")
	}
	if s.loaned != nil {
		t.Fatal("reclaimLoan must run at ProcessBatch entry")
	}
}

func TestSUnionEmitBucketSortSkipKeepsOrder(t *testing.T) {
	// An already-sorted bucket (single input appending in stime order)
	// takes the IsSorted short-cut; an interleaved two-port bucket must
	// still be sorted with the stable tie-break. Both paths must agree
	// with the documented order: stime, then src, then id.
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(20*ms, 1))
	s.Process(1, tuple.NewInsertion(10*ms, 2))
	s.Process(0, tuple.NewInsertion(10*ms, 3))
	s.Process(0, tuple.NewBoundary(100*ms))
	s.Process(1, tuple.NewBoundary(100*ms))
	got := c.data()
	if !eqI64(stimes(got), []int64{10 * ms, 10 * ms, 20 * ms}) {
		t.Fatalf("unsorted bucket not sorted: %v", stimes(got))
	}
	if got[0].Src != 0 || got[1].Src != 1 {
		t.Fatalf("stable tie-break by src lost: %v", got)
	}
}

func TestBaseEmitLoanFallsBackPerTuple(t *testing.T) {
	// Without an env EmitLoan the loan degrades to in-order per-tuple
	// emission and reports the loan as not taken.
	f := NewFilter("f", func(tuple.Tuple) bool { return true })
	c := attach(f, nil)
	in := []tuple.Tuple{tuple.NewInsertion(10, 1), tuple.NewBoundary(20)}
	if f.EmitLoan(in) {
		t.Fatal("loan must not be reported taken without a bulk env")
	}
	sameTuples(t, c.out, in)
}
