package operator

import (
	"testing"
	"testing/quick"

	"borealis/internal/tuple"
)

func newJoin(window int64) *SJoin {
	return NewSJoin("j", JoinConfig{Window: window, LeftKey: 0, RightKey: 0})
}

func leftT(stime, key int64, rest ...int64) tuple.Tuple {
	t := tuple.NewInsertion(stime, append([]int64{key}, rest...)...)
	t.Src = 0
	return t
}

func rightT(stime, key int64, rest ...int64) tuple.Tuple {
	t := tuple.NewInsertion(stime, append([]int64{key}, rest...)...)
	t.Src = 1
	return t
}

func TestJoinMatchesWithinWindow(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, leftT(5, 42, 100))
	j.Process(0, rightT(8, 42, 200))
	got := c.data()
	if len(got) != 1 {
		t.Fatalf("want 1 match, got %v", got)
	}
	out := got[0]
	if out.STime != 8 {
		t.Fatalf("output stime should be the later of the pair, got %d", out.STime)
	}
	want := []int64{42, 100, 42, 200}
	if !eqI64(out.Values(), want) {
		t.Fatalf("payload = %v, want %v", out.Values(), want)
	}
}

func TestJoinRespectsWindowAndKey(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, leftT(5, 1))
	j.Process(0, rightT(14, 2)) // wrong key
	if len(c.data()) != 0 {
		t.Fatalf("unexpected matches: %v", c.data())
	}
	j.Process(0, rightT(15, 1)) // |15-5| = 10 ≤ window: match
	if len(c.data()) != 1 {
		t.Fatalf("edge-of-window match missing: %v", c.data())
	}
	j.Process(0, rightT(16, 1)) // |16-5| = 11 > window: no match
	if len(c.data()) != 1 {
		t.Fatalf("out-of-window tuple matched: %v", c.data())
	}
}

func TestJoinWindowBoundsBothDirections(t *testing.T) {
	// Off the SUnion contract a buffered tuple can be newer than the
	// arrival; |Δstime| ≤ Window still decides, in both directions.
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, leftT(50, 1))
	j.Process(0, rightT(45, 1)) // the watermark stays at 50: nothing pruned
	j.Process(0, rightT(40, 1)) // |40-50| = 10: match
	j.Process(0, rightT(39, 1)) // |39-50| = 11: no match
	if got := c.data(); len(got) != 2 || got[0].STime != 50 || got[1].STime != 50 {
		t.Fatalf("want exactly the two in-window matches stamped 50: %v", got)
	}
}

func TestJoinMultipleMatchesDeterministicOrder(t *testing.T) {
	j := newJoin(100)
	c := attach(j, nil)
	j.Process(0, rightT(1, 7, 10))
	j.Process(0, rightT(2, 7, 20))
	j.Process(0, leftT(3, 7, 99))
	got := c.data()
	if len(got) != 2 {
		t.Fatalf("want 2 matches, got %v", got)
	}
	// Matches must come out in buffer (stime) order.
	if got[0].Field(3) != 10 || got[1].Field(3) != 20 {
		t.Fatalf("match order wrong: %v", got)
	}
}

func TestJoinTentativePropagates(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	lt := leftT(1, 5)
	lt.Type = tuple.Tentative
	j.Process(0, lt)
	j.Process(0, rightT(2, 5))
	got := c.data()
	if len(got) != 1 || got[0].Type != tuple.Tentative {
		t.Fatalf("tentative side must taint output: %v", got)
	}
}

func TestJoinPrunesState(t *testing.T) {
	j := newJoin(10)
	attach(j, nil)
	for i := int64(0); i < 100; i++ {
		j.Process(0, leftT(i, i))
	}
	// Watermark at 99 prunes left tuples below 89.
	if j.StateSize() > 15 {
		t.Fatalf("state not pruned: %d tuples", j.StateSize())
	}
	j.Process(0, tuple.NewBoundary(500))
	if j.StateSize() != 0 {
		t.Fatalf("boundary should prune all: %d", j.StateSize())
	}
}

func TestJoinPrunedTupleCannotMatch(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, leftT(0, 1))
	j.Process(0, tuple.NewBoundary(50))
	j.Process(0, rightT(50, 1))
	if len(c.data()) != 0 {
		t.Fatalf("pruned tuple matched: %v", c.data())
	}
}

func TestJoinBoundaryForwarded(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, tuple.NewBoundary(30))
	bs := c.ofType(tuple.Boundary)
	if len(bs) != 1 || bs[0].STime != 30 {
		t.Fatalf("boundary not forwarded: %v", bs)
	}
}

func TestJoinRecDoneAndUndoPassThrough(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, tuple.NewRecDone(1))
	j.Process(0, tuple.NewUndo(5))
	if len(c.ofType(tuple.RecDone)) != 1 || len(c.ofType(tuple.Undo)) != 1 {
		t.Fatalf("control tuples must pass: %v", c.out)
	}
}

func TestJoinCustomSideClassifier(t *testing.T) {
	j := NewSJoin("j", JoinConfig{
		Window: 10, LeftKey: 0, RightKey: 0,
		IsLeft: func(src int32) bool { return src <= 1 },
	})
	c := attach(j, nil)
	a := tuple.NewInsertion(1, 9)
	a.Src = 1 // left under the custom classifier
	b := tuple.NewInsertion(2, 9)
	b.Src = 2 // right
	j.Process(0, a)
	j.Process(0, b)
	if len(c.data()) != 1 {
		t.Fatalf("custom classifier join failed: %v", c.data())
	}
}

func TestJoinCheckpointRestore(t *testing.T) {
	j := newJoin(10)
	c := attach(j, nil)
	j.Process(0, leftT(1, 5))
	snap := j.Checkpoint()
	j.Process(0, leftT(2, 6))
	j.Restore(snap)
	if j.StateSize() != 1 {
		t.Fatalf("restore: state size = %d, want 1", j.StateSize())
	}
	c.reset()
	j.Process(0, rightT(3, 5))
	if len(c.data()) != 1 {
		t.Fatal("restored tuple should still match")
	}
	// The snapshot must be independent of later mutation.
	j.Process(0, tuple.NewBoundary(100))
	j.Restore(snap)
	if j.StateSize() != 1 {
		t.Fatal("snapshot must be reusable after pruning")
	}
}

// Property: join output is symmetric — feeding (L, R) in any interleaving
// that preserves per-side order produces the same set of matches.
func TestQuickJoinMatchSetInvariant(t *testing.T) {
	type ev struct {
		STime uint8
		Key   uint8
		Left  bool
	}
	f := func(evs []ev) bool {
		if len(evs) > 24 {
			evs = evs[:24]
		}
		// Count expected matches by brute force.
		want := 0
		for i, a := range evs {
			for _, b := range evs[i+1:] {
				if a.Left != b.Left && a.Key%4 == b.Key%4 && absDiff(int64(a.STime), int64(b.STime)) <= 10 {
					want++
				}
			}
		}
		j := newJoin(10)
		c := newCollector(nil)
		j.Attach(c.env())
		for _, e := range evs {
			tp := tuple.NewInsertion(int64(e.STime), int64(e.Key%4))
			if e.Left {
				tp.Src = 0
			} else {
				tp.Src = 1
			}
			j.Process(0, tp)
		}
		// The join prunes by watermark, so out-of-order inputs may
		// legally miss matches whose partner was pruned; it must
		// never produce MORE matches than the brute force count.
		return len(c.data()) <= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with stime-ordered input (the SUnion guarantee), the join finds
// exactly the brute-force match set.
func TestQuickJoinOrderedExactness(t *testing.T) {
	f := func(keys []uint8, sides []bool) bool {
		n := len(keys)
		if len(sides) < n {
			n = len(sides)
		}
		if n > 24 {
			n = 24
		}
		want := 0
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				if sides[i] != sides[k] && keys[i]%4 == keys[k]%4 && absDiff(int64(i), int64(k)) <= 10 {
					want++
				}
			}
		}
		j := newJoin(10)
		c := newCollector(nil)
		j.Attach(c.env())
		for i := 0; i < n; i++ {
			tp := tuple.NewInsertion(int64(i), int64(keys[i]%4))
			if sides[i] {
				tp.Src = 0
			} else {
				tp.Src = 1
			}
			j.Process(0, tp)
		}
		return len(c.data()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
