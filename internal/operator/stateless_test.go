package operator

import (
	"slices"
	"testing"

	"borealis/internal/tuple"
)

func TestFilterPredicate(t *testing.T) {
	f := NewFilter("f", func(tp tuple.Tuple) bool { return tp.Field(0) > 10 })
	c := attach(f, nil)
	f.Process(0, tuple.NewInsertion(1, 5))
	f.Process(0, tuple.NewInsertion(2, 15))
	f.Process(0, tuple.NewTentative(3, 20))
	got := c.data()
	if len(got) != 2 || got[0].Field(0) != 15 || got[1].Field(0) != 20 {
		t.Fatalf("filter output wrong: %v", got)
	}
	if got[1].Type != tuple.Tentative {
		t.Fatal("filter must preserve tentativeness")
	}
	if f.Passed() != 2 {
		t.Fatalf("Passed() = %d, want 2", f.Passed())
	}
}

func TestFilterForwardsControl(t *testing.T) {
	f := NewFilter("f", func(tuple.Tuple) bool { return false })
	c := attach(f, nil)
	f.Process(0, tuple.NewBoundary(5))
	f.Process(0, tuple.NewUndo(1))
	f.Process(0, tuple.NewRecDone(9))
	if len(c.out) != 3 {
		t.Fatalf("control tuples must pass a closed filter, got %v", c.out)
	}
}

func TestFilterCheckpointRestore(t *testing.T) {
	f := NewFilter("f", func(tuple.Tuple) bool { return true })
	attach(f, nil)
	f.Process(0, tuple.NewInsertion(1, 1))
	snap := f.Checkpoint()
	f.Process(0, tuple.NewInsertion(2, 2))
	if f.Passed() != 2 {
		t.Fatal("expected 2 passed")
	}
	f.Restore(snap)
	if f.Passed() != 1 {
		t.Fatalf("restore: Passed() = %d, want 1", f.Passed())
	}
}

func TestFilterNilPredicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFilter("f", nil)
}

func TestMapTransforms(t *testing.T) {
	m := NewMap("m", func(d []int64) []int64 { return []int64{d[0] * 2} })
	c := attach(m, nil)
	m.Process(0, tuple.NewInsertion(1, 21))
	m.Process(0, tuple.NewBoundary(5))
	got := c.data()
	if len(got) != 1 || got[0].Field(0) != 42 {
		t.Fatalf("map output wrong: %v", got)
	}
	if len(c.ofType(tuple.Boundary)) != 1 {
		t.Fatal("map must forward boundaries")
	}
	if m.Checkpoint() != nil {
		t.Fatal("map is stateless; checkpoint should be nil")
	}
	m.Restore(nil) // must not panic
}

func TestMapPreservesTentative(t *testing.T) {
	m := NewMap("m", func(d []int64) []int64 { return d })
	c := attach(m, nil)
	m.Process(0, tuple.NewTentative(1, 3))
	if c.data()[0].Type != tuple.Tentative {
		t.Fatal("map must preserve tuple type")
	}
}

func TestFieldKernelsRejectBadArguments(t *testing.T) {
	for name, build := range map[string]func(){
		"filter negative field": func() { NewFieldFilter("f", -1, 2) },
		"filter zero modulo":    func() { NewFieldFilter("f", 0, 0) },
		"map negative field":    func() { NewFieldMap("m", -1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			build()
		}()
	}
}

func TestFieldMapScalesTheFrameNotThePublishedPayload(t *testing.T) {
	m := NewFieldMap("m", 1, 3)
	c := attach(m, nil)
	in := []tuple.Tuple{
		tuple.NewInsertion(1, 5, 7), tuple.NewInsertion(2, 5),
		tuple.NewInsertion(3, 1, 7, 3), tuple.NewBoundary(4),
	}
	published := slices.Clone(in)
	m.Process(0, in[0])
	if !m.ProcessBatch(0, in[1:]) {
		t.Fatal("map declined a batch")
	}
	if got := c.out[0].Values(); !eqI64(got, []int64{5, 21}) {
		t.Fatalf("scaled payload %v, want [5 21]", got)
	}
	if got := c.out[1].Values(); !eqI64(got, []int64{5}) {
		t.Fatalf("short payload %v, want [5] unchanged", got)
	}
	if got := c.out[2].Values(); !eqI64(got, []int64{1, 21, 3}) {
		t.Fatalf("scaled long payload %v, want [1 21 3]", got)
	}
	if len(c.ofType(tuple.Boundary)) != 1 {
		t.Fatal("map must forward boundaries")
	}
	// Process got a copy of in[0]; the batch frame is the map's own and is
	// rewritten in place, except the long payload's published chunk, which
	// every copy of the tuple still reads.
	if in[0].Field(1) != 7 || in[2].Field(1) != 21 {
		t.Fatalf("frame after map: %v", in)
	}
	if got := published[2].Values(); !eqI64(got, []int64{1, 7, 3}) {
		t.Fatalf("published long payload rewritten: %v", got)
	}
}

func TestUnionMergesAndTags(t *testing.T) {
	u := NewUnion("u", 2)
	c := attach(u, nil)
	u.Process(0, tuple.NewInsertion(1, 10))
	u.Process(1, tuple.NewInsertion(2, 20))
	got := c.data()
	if len(got) != 2 || got[0].Src != 0 || got[1].Src != 1 {
		t.Fatalf("union must tag Src by port: %v", got)
	}
}

func TestUnionBoundaryIsMinWatermark(t *testing.T) {
	u := NewUnion("u", 2)
	c := attach(u, nil)
	u.Process(0, tuple.NewBoundary(10))
	if len(c.ofType(tuple.Boundary)) != 0 {
		t.Fatal("boundary must wait for all ports")
	}
	u.Process(1, tuple.NewBoundary(5))
	bs := c.ofType(tuple.Boundary)
	if len(bs) != 1 || bs[0].STime != 5 {
		t.Fatalf("want min watermark 5, got %v", bs)
	}
	// A later boundary on port 1 raises the min.
	u.Process(1, tuple.NewBoundary(30))
	bs = c.ofType(tuple.Boundary)
	if len(bs) != 2 || bs[1].STime != 10 {
		t.Fatalf("want watermark 10, got %v", bs)
	}
	// Non-advancing boundary emits nothing.
	u.Process(1, tuple.NewBoundary(8))
	if len(c.ofType(tuple.Boundary)) != 2 {
		t.Fatal("non-advancing boundary must not emit")
	}
}

func TestUnionRecDoneWaitsAllPorts(t *testing.T) {
	u := NewUnion("u", 3)
	c := attach(u, nil)
	u.Process(0, tuple.NewRecDone(1))
	u.Process(1, tuple.NewRecDone(1))
	if len(c.ofType(tuple.RecDone)) != 0 {
		t.Fatal("rec_done must wait for all ports")
	}
	u.Process(2, tuple.NewRecDone(1))
	if len(c.ofType(tuple.RecDone)) != 1 {
		t.Fatal("rec_done should fire once all ports reported")
	}
	// Flags must reset for the next reconciliation.
	u.Process(0, tuple.NewRecDone(2))
	if len(c.ofType(tuple.RecDone)) != 1 {
		t.Fatal("flags must reset after forwarding")
	}
}

func TestUnionCheckpointRestore(t *testing.T) {
	u := NewUnion("u", 2)
	c := attach(u, nil)
	u.Process(0, tuple.NewBoundary(10))
	u.Process(1, tuple.NewBoundary(10))
	snap := u.Checkpoint()
	u.Process(0, tuple.NewBoundary(50))
	u.Process(1, tuple.NewBoundary(50))
	u.Restore(snap)
	c.reset()
	// After restore the watermark is 10 again; an advance to 20 emits.
	u.Process(0, tuple.NewBoundary(20))
	u.Process(1, tuple.NewBoundary(20))
	bs := c.ofType(tuple.Boundary)
	if len(bs) != 1 || bs[0].STime != 20 {
		t.Fatalf("after restore want boundary 20, got %v", bs)
	}
}
