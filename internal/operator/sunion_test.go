package operator

import (
	"testing"
	"testing/quick"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

func newSU(ports int, sim *runtime.VirtualClock) (*SUnion, *collector) {
	s := NewSUnion("su", SUnionConfig{
		Ports:      ports,
		BucketSize: 100 * ms,
		Delay:      2 * sec,
	})
	c := attach(s, sim)
	return s, c
}

func TestSUnionStableEmissionWaitsForAllBoundaries(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.Process(1, tuple.NewInsertion(20*ms, 2))
	s.Process(0, tuple.NewBoundary(100*ms))
	if len(c.data()) != 0 {
		t.Fatal("bucket emitted before all ports' boundaries covered it")
	}
	s.Process(1, tuple.NewBoundary(100*ms))
	got := c.data()
	if len(got) != 2 {
		t.Fatalf("stable bucket not emitted: %v", got)
	}
	if got[0].STime != 10*ms || got[1].STime != 20*ms {
		t.Fatalf("bucket not sorted by stime: %v", stimes(got))
	}
	if got[0].Type != tuple.Insertion || got[1].Type != tuple.Insertion {
		t.Fatal("stable bucket must emit insertions")
	}
	bs := c.ofType(tuple.Boundary)
	if len(bs) != 1 || bs[0].STime != 100*ms {
		t.Fatalf("watermark boundary missing: %v", bs)
	}
}

func TestSUnionDeterministicOrderAcrossArrivalInterleavings(t *testing.T) {
	run := func(order [][2]int) []tuple.Tuple {
		sim := runtime.NewVirtual()
		s, c := newSU(2, sim)
		for _, pt := range order {
			tp := tuple.NewInsertion(int64(pt[1])*ms, int64(pt[1]))
			s.Process(pt[0], tp)
		}
		s.Process(0, tuple.NewBoundary(100*ms))
		s.Process(1, tuple.NewBoundary(100*ms))
		return c.data()
	}
	// Same tuples, two different interleavings.
	a := run([][2]int{{0, 10}, {1, 20}, {0, 30}, {1, 40}})
	b := run([][2]int{{1, 40}, {0, 30}, {1, 20}, {0, 10}})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !tuple.SameValue(a[i], b[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSUnionTieBreakBySrcThenID(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	t1 := tuple.NewInsertion(10*ms, 111)
	t1.ID = 2
	t2 := tuple.NewInsertion(10*ms, 222)
	t2.ID = 1
	s.Process(1, t1) // port 1, same stime
	s.Process(0, t2) // port 0 must come first
	s.Process(0, tuple.NewBoundary(100*ms))
	s.Process(1, tuple.NewBoundary(100*ms))
	got := c.data()
	if got[0].Field(0) != 222 || got[1].Field(0) != 111 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

func TestSUnionBucketsEmitInOrder(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(1, sim)
	s.Process(0, tuple.NewInsertion(250*ms, 3)) // bucket [200,300)
	s.Process(0, tuple.NewInsertion(50*ms, 1))  // bucket [0,100)
	s.Process(0, tuple.NewInsertion(150*ms, 2)) // bucket [100,200)
	s.Process(0, tuple.NewBoundary(300*ms))
	got := c.data()
	if len(got) != 3 || got[0].Field(0) != 1 || got[1].Field(0) != 2 || got[2].Field(0) != 3 {
		t.Fatalf("buckets out of order: %v", got)
	}
}

func TestSUnionEmptyBucketsAdvanceWatermark(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(1, sim)
	s.Process(0, tuple.NewBoundary(500*ms))
	bs := c.ofType(tuple.Boundary)
	if len(bs) != 1 || bs[0].STime != 500*ms {
		t.Fatalf("empty buckets should still advance the watermark: %v", bs)
	}
	// Cursor advanced past the empty region: late data is dropped.
	s.Process(0, tuple.NewInsertion(100*ms, 1))
	if s.DroppedLate() != 1 {
		t.Fatalf("late tuple not dropped, DroppedLate=%d", s.DroppedLate())
	}
}

func TestSUnionSuspendPolicyHoldsEverything(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.SetPolicy(PolicySuspend)
	sim.RunFor(10 * sec)
	if len(c.data()) != 0 {
		t.Fatalf("suspend must emit nothing: %v", c.data())
	}
}

func TestSUnionDelayPolicyReleasesAt90PercentOfD(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	// Port 1 has failed: data arrives only on port 0, no boundaries on 1.
	sim.RunUntil(1 * sec)
	s.Process(0, tuple.NewInsertion(1*sec, 7))
	s.Process(0, tuple.NewBoundary(1100*ms))
	s.SetPolicy(PolicyDelay)
	sim.RunUntil(1*sec + 1700*ms) // 0.9 * 2s = 1.8s after arrival
	if len(c.data()) != 0 {
		t.Fatal("delay policy released too early")
	}
	sim.RunUntil(1*sec + 1900*ms)
	got := c.data()
	if len(got) != 1 {
		t.Fatalf("delay policy did not release after 0.9·D: %v", got)
	}
	if got[0].Type != tuple.Tentative {
		t.Fatal("policy release must emit tentative tuples")
	}
}

func TestSUnionProcessPolicyInitialSuspensionThenShortWait(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	sim.RunUntil(1 * sec)
	s.Process(0, tuple.NewInsertion(1*sec, 1))
	s.SetPolicy(PolicyProcess)
	// Initial suspension: oldest pending arrival (1s) + 1.8s = 2.8s.
	sim.RunUntil(2700 * ms)
	if len(c.data()) != 0 {
		t.Fatal("process policy must respect the initial suspension")
	}
	sim.RunUntil(2900 * ms)
	if len(c.data()) != 1 {
		t.Fatalf("initial suspension should end at 2.8s: %v", c.data())
	}
	// After the suspension, new buckets wait only TentativeWait (300ms).
	c.reset()
	sim.RunUntil(3 * sec)
	s.Process(0, tuple.NewInsertion(3*sec, 2))
	sim.RunUntil(3*sec + 250*ms)
	if len(c.data()) != 0 {
		t.Fatal("tentative bucket released before TentativeWait")
	}
	sim.RunUntil(3*sec + 350*ms)
	if len(c.data()) != 1 {
		t.Fatalf("tentative bucket not released after TentativeWait: %v", c.data())
	}
}

func TestSUnionSignalsUpFailureOncePerEpisode(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.SetPolicy(PolicyProcess)
	if len(c.signals) != 1 || c.signals[0].Kind != SigUpFailure {
		t.Fatalf("want one UP_FAILURE signal, got %v", c.signals)
	}
	s.SetPolicy(PolicyDelay) // same episode: no new signal
	if len(c.signals) != 1 {
		t.Fatalf("policy change within episode must not re-signal: %v", c.signals)
	}
	s.SetPolicy(PolicyNone)
	s.SetPolicy(PolicyProcess) // new episode
	if len(c.signals) != 2 {
		t.Fatalf("new episode should re-signal: %v", c.signals)
	}
}

func TestSUnionMaskedFailureEmitsNothingTentative(t *testing.T) {
	// Failure shorter than the suspension: boundaries resume before
	// 0.9·D expires, so the bucket is emitted stable — the failure is
	// fully masked (§6.1: "all techniques completely mask failures that
	// last 2 seconds or less").
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.Process(0, tuple.NewBoundary(100*ms))
	s.SetPolicy(PolicyProcess)
	sim.RunUntil(1 * sec) // failure heals at 1s < 1.8s suspension
	s.Process(1, tuple.NewInsertion(20*ms, 2))
	s.Process(1, tuple.NewBoundary(100*ms))
	s.SetPolicy(PolicyNone)
	sim.Run()
	got := c.data()
	if len(got) != 2 {
		t.Fatalf("want both tuples stable, got %v", got)
	}
	for _, tp := range got {
		if tp.Type != tuple.Insertion {
			t.Fatalf("masked failure must not emit tentative: %v", got)
		}
	}
}

func TestSUnionTentativeInputBlocksStableEmission(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(1, sim)
	s.Process(0, tuple.NewTentative(10*ms, 1))
	s.Process(0, tuple.NewBoundary(200*ms))
	if len(c.data()) != 0 {
		t.Fatal("bucket containing tentative tuples must not emit stably")
	}
	s.SetPolicy(PolicyProcess)
	sim.Run()
	got := c.data()
	if len(got) != 1 || got[0].Type != tuple.Tentative {
		t.Fatalf("tentative bucket should flush tentatively: %v", got)
	}
}

func TestSUnionNoBoundaryDuringTentativeFlush(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.SetPolicy(PolicyProcess)
	sim.Run()
	if len(c.ofType(tuple.Boundary)) != 0 {
		t.Fatalf("tentative flushes must not advance the stable watermark: %v", c.out)
	}
}

func TestSUnionRecDoneWaitsAllPorts(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewRecDone(0))
	if len(c.ofType(tuple.RecDone)) != 0 {
		t.Fatal("rec_done must wait for all ports")
	}
	s.Process(1, tuple.NewRecDone(0))
	if len(c.ofType(tuple.RecDone)) != 1 {
		t.Fatal("rec_done should forward once complete")
	}
}

func TestSUnionUndoDroppedAndCounted(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(1, sim)
	s.Process(0, tuple.NewUndo(3))
	if len(c.out) != 0 || s.droppedUndo != 1 {
		t.Fatal("undo must be dropped at SUnion in node-wide mode")
	}
}

func TestSUnionCheckpointRestoreRoundTrip(t *testing.T) {
	sim := runtime.NewVirtual()
	s, c := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.Process(1, tuple.NewInsertion(20*ms, 2))
	snap := s.Checkpoint()

	// Diverge: flush tentatively.
	s.SetPolicy(PolicyProcess)
	sim.Run()
	if len(c.data()) == 0 {
		t.Fatal("setup: expected tentative flush")
	}

	// Restore and replay stably.
	s.Restore(snap)
	s.SetPolicy(PolicyNone)
	c.reset()
	s.Process(0, tuple.NewBoundary(100*ms))
	s.Process(1, tuple.NewBoundary(100*ms))
	got := c.data()
	if len(got) != 2 || got[0].Type != tuple.Insertion || got[1].Type != tuple.Insertion {
		t.Fatalf("replay after restore should emit the stable bucket: %v", got)
	}
}

func TestSUnionCheckpointIsDeep(t *testing.T) {
	sim := runtime.NewVirtual()
	s, _ := newSU(1, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	snap := s.Checkpoint()
	s.Process(0, tuple.NewInsertion(20*ms, 2)) // mutate live bucket
	s.Restore(snap)
	if s.PendingBuckets() != 1 {
		t.Fatal("restore failed")
	}
	c := newCollector(sim)
	s.Attach(c.env())
	s.Process(0, tuple.NewBoundary(100*ms))
	if n := len(c.data()); n != 1 {
		t.Fatalf("snapshot leaked live mutations: %d tuples", n)
	}
}

func TestSUnionOldestPendingArrival(t *testing.T) {
	sim := runtime.NewVirtual()
	s, _ := newSU(1, sim)
	sim.RunUntil(5 * sec)
	if got := s.OldestPendingArrival(); got != 5*sec {
		t.Fatalf("empty SUnion should report now, got %d", got)
	}
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	sim.RunUntil(6 * sec)
	s.Process(0, tuple.NewInsertion(20*ms, 2))
	if got := s.OldestPendingArrival(); got != 5*sec {
		t.Fatalf("oldest arrival = %d, want %d", got, 5*sec)
	}
}

func TestSUnionLateTupleAfterTentativeFlushDropped(t *testing.T) {
	sim := runtime.NewVirtual()
	s, _ := newSU(2, sim)
	s.Process(0, tuple.NewInsertion(10*ms, 1))
	s.SetPolicy(PolicyProcess)
	sim.Run() // flushes bucket [0,100) tentatively
	s.Process(1, tuple.NewInsertion(20*ms, 2))
	if s.DroppedLate() != 1 {
		t.Fatalf("late tuple for flushed bucket must drop (footnote 6), got %d", s.DroppedLate())
	}
}

func TestSUnionSingleDataBoundaryPerBatchKeepsLatencyLow(t *testing.T) {
	// Serialization delay ≈ bucket size + boundary interval (§7).
	sim := runtime.NewVirtual()
	s, c := newSU(1, sim)
	var emitted []int64
	base := c.env()
	emit := base.Emit
	base.Emit = func(tp tuple.Tuple) {
		if tp.IsData() {
			emitted = append(emitted, sim.Now())
		}
		emit(tp)
	}
	s.Attach(base)
	// Source: tuple every 10ms with boundary each 10ms.
	for i := int64(0); i < 50; i++ {
		at := i * 10 * ms
		sim.At(at, func() {
			s.Process(0, tuple.NewInsertion(at, 1))
			s.Process(0, tuple.NewBoundary(at))
		})
	}
	sim.Run()
	if len(emitted) == 0 {
		t.Fatal("no emissions")
	}
	// Bucket [0,100) emits when boundary reaches 100ms, i.e. tuple at
	// 10ms waits ≈ 90-100ms. Max wait must stay ≈ bucket + interval.
	maxWait := int64(0)
	// Recompute waits from output order: outputs are in stime order.
	got := c.data()
	for i, tp := range got {
		wait := emitted[i] - tp.STime
		if wait > maxWait {
			maxWait = wait
		}
	}
	if maxWait > 120*ms {
		t.Fatalf("serialization delay too high: %d ms", maxWait/ms)
	}
}

// Property: for any arrival pattern, once boundaries cover everything, the
// output is exactly the sorted multiset of inputs and is identical across
// arrival interleavings (mutual replica consistency, §4.2).
func TestQuickSUnionSerializationDeterminism(t *testing.T) {
	f := func(raw []uint16, perm []uint8) bool {
		n := len(raw)
		if n > 30 {
			n = 30
		}
		mk := func(order []int) []tuple.Tuple {
			sim := runtime.NewVirtual()
			s := NewSUnion("su", SUnionConfig{Ports: 2, BucketSize: 64, Delay: 1000})
			c := newCollector(sim)
			s.Attach(c.env())
			for _, idx := range order {
				v := raw[idx]
				tp := tuple.NewInsertion(int64(v%512), int64(v))
				tp.ID = uint64(idx)
				s.Process(int(v)%2, tp)
			}
			s.Process(0, tuple.NewBoundary(512))
			s.Process(1, tuple.NewBoundary(512))
			return c.data()
		}
		fwd := make([]int, n)
		for i := range fwd {
			fwd[i] = i
		}
		// Build a second order by swapping pairs per perm.
		alt := append([]int(nil), fwd...)
		for i, p := range perm {
			if n < 2 {
				break
			}
			a, b := i%n, int(p)%n
			alt[a], alt[b] = alt[b], alt[a]
		}
		x, y := mk(fwd), mk(alt)
		if len(x) != n || len(y) != n {
			return false
		}
		for i := range x {
			if !tuple.SameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: no data tuple is ever emitted twice and emission order is
// non-decreasing in bucket index, for any mix of boundaries and data.
func TestQuickSUnionMonotoneEmission(t *testing.T) {
	f := func(events []uint16) bool {
		sim := runtime.NewVirtual()
		s := NewSUnion("su", SUnionConfig{Ports: 1, BucketSize: 32, Delay: 1000})
		c := newCollector(sim)
		s.Attach(c.env())
		for _, e := range events {
			st := int64(e % 256)
			if e%5 == 0 {
				s.Process(0, tuple.NewBoundary(st))
			} else {
				s.Process(0, tuple.NewInsertion(st, int64(e)))
			}
		}
		s.Process(0, tuple.NewBoundary(256))
		got := c.data()
		lastBucket := int64(-1)
		for _, tp := range got {
			b := tp.STime / 32
			if b < lastBucket {
				return false
			}
			lastBucket = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
