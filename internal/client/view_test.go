package client

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"
	"unsafe"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// refView is the audit view the client kept before it moved into fixed
// segments: one slice grown by append and compacted by tuple.ApplyUndo. It is the reference model the segmented view must agree
// with.
type refView struct {
	view []tuple.Tuple
}

func (c *refView) consume(t tuple.Tuple) {
	switch {
	case t.IsData():
		c.view = append(c.view, t)
	case t.Type == tuple.Undo:
		c.view = tuple.ApplyUndo(c.view, t.ID)
	}
}

// View returns the undo-compacted delivered stream.
func (c *refView) View() []tuple.Tuple { return append([]tuple.Tuple(nil), c.view...) }

// StableView returns only the stable prefix content of the delivered
// stream (tentative tuples excluded): what Definition 1 compares.
func (c *refView) StableView() []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range c.view {
		if t.Type == tuple.Insertion {
			out = append(out, t)
		}
	}
	return out
}

// viewSegment is the length of the segments the view is kept in
// (node.TupleLog's).
const viewSegment = 1024

// newTapClient builds a client whose application layer the test feeds
// directly through consume.
func newTapClient(t testing.TB) *Client {
	t.Helper()
	sim := runtime.NewVirtual()
	c, err := New(sim, netsim.New(sim), Config{ID: "client", Stream: "out", Upstreams: []string{"n1"}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameView reports whether two views are equal tuple for tuple, nil-ness
// included.
func sameView(a, b []tuple.Tuple) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// viewTwin feeds one delivery sequence to a client and to the reference.
type viewTwin struct {
	c      *Client
	ref    refView
	nextID uint64 // last stable id delivered
	stime  int64
}

func (w *viewTwin) feed(t tuple.Tuple) {
	w.c.consume(t)
	w.ref.consume(t)
}

// data returns the next data tuple. Stable ids advance; a tentative tuple
// takes a provisional id, sometimes one a stable tuple already carries.
func (w *viewTwin) data(rng *rand.Rand, typ tuple.Type) tuple.Tuple {
	w.stime++
	t := tuple.Tuple{Type: typ, STime: w.stime}.WithData(w.stime)
	if typ == tuple.Insertion {
		w.nextID++
		t.ID = w.nextID
	} else if rng.Intn(8) == 0 && w.nextID > 0 {
		t.ID = 1 + uint64(rng.Int63n(int64(w.nextID)))
	} else {
		t.ID = w.nextID + 1 + uint64(rng.Intn(4))
	}
	return t
}

// anchor returns the id of a stable tuple in the view, preferring one that
// sits just before or on a segment boundary, so that the undo truncates
// exactly there.
func (w *viewTwin) anchor(rng *rand.Rand, onBoundary bool) (uint64, bool) {
	v := w.ref.view
	if onBoundary {
		for b := viewSegment; b <= len(v); b += viewSegment {
			i := b - 1 + rng.Intn(2)
			if i < len(v) && v[i].Type == tuple.Insertion && rng.Intn(2) == 0 {
				return v[i].ID, true
			}
		}
	}
	for tries := 0; tries < 20 && len(v) > 0; tries++ {
		if t := v[rng.Intn(len(v))]; t.Type == tuple.Insertion {
			return t.ID, true
		}
	}
	return 0, false
}

func (w *viewTwin) step(rng *rand.Rand) string {
	switch r := rng.Intn(100); {
	case r < 30:
		n := 1 + rng.Intn(3*viewSegment/2)
		for i := 0; i < n; i++ {
			w.feed(w.data(rng, tuple.Insertion))
		}
		return fmt.Sprintf("%d stable", n)
	case r < 45:
		n := 1 + rng.Intn(viewSegment)
		for i := 0; i < n; i++ {
			w.feed(w.data(rng, tuple.Tentative))
		}
		return fmt.Sprintf("%d tentative", n)
	case r < 52:
		n := 1 + rng.Intn(viewSegment)
		for i := 0; i < n; i++ {
			typ := tuple.Insertion
			if rng.Intn(2) == 0 {
				typ = tuple.Tentative
			}
			w.feed(w.data(rng, typ))
		}
		return fmt.Sprintf("%d mixed", n)
	case r < 62:
		id, ok := w.anchor(rng, false)
		if !ok {
			return "no anchor"
		}
		w.feed(tuple.NewUndo(id))
		return fmt.Sprintf("anchored undo(%d)", id)
	case r < 72:
		id, ok := w.anchor(rng, true)
		if !ok {
			return "no anchor"
		}
		w.feed(tuple.NewUndo(id))
		return fmt.Sprintf("boundary undo(%d)", id)
	case r < 80:
		id := w.nextID + 1000 + uint64(rng.Intn(10))
		w.feed(tuple.NewUndo(id))
		return fmt.Sprintf("unanchored undo(%d)", id)
	case r < 82:
		w.feed(tuple.NewUndo(0))
		return "undo(0)"
	case r < 90:
		w.feed(tuple.NewRecDone(w.stime))
		return "rec_done"
	default:
		w.feed(tuple.NewBoundary(w.stime + 1))
		return "boundary"
	}
}

// TestClientViewMatchesReference drives the segmented view and the slice
// reference with seeded delivery sequences — stable, tentative and mixed
// runs, anchored undos (some pinned on a segment boundary), unanchored and
// id-0 undos, REC_DONE, boundaries — and requires View and StableView to be
// equal after every step.
func TestClientViewMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w := &viewTwin{c: newTapClient(t)}
		longest := 0
		for i := 0; i < 300; i++ {
			what := w.step(rng)
			if g, r := w.c.View(), w.ref.View(); !sameView(g, r) {
				t.Fatalf("seed %d step %d (%s): View has %d tuples, reference %d", seed, i, what, len(g), len(r))
			}
			if g, r := w.c.StableView(), w.ref.StableView(); !sameView(g, r) {
				t.Fatalf("seed %d step %d (%s): StableView has %d tuples, reference %d", seed, i, what, len(g), len(r))
			}
			longest = max(longest, len(w.ref.view))
		}
		if longest < 4*viewSegment {
			t.Errorf("seed %d: the view reached only %d tuples, fewer than four segments", seed, longest)
		}
	}
}

// TestClientViewNeverRecopies: the audit view grows a segment at a time, so
// 100 000 deliveries allocate about the tuples' own bytes, where a slice
// grown by doubling allocates about twice that over its life.
func TestClientViewNeverRecopies(t *testing.T) {
	c := newTapClient(t)
	const n = 100000
	payload := []int64{1}
	tentative := func(i int) tuple.Tuple {
		return tuple.Tuple{Type: tuple.Tentative, ID: uint64(i), STime: int64(i)}.WithData(payload...)
	}
	c.consume(tentative(1))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 2; i <= n; i++ {
		c.consume(tentative(i))
	}
	goruntime.ReadMemStats(&after)
	own := float64(n) * float64(unsafe.Sizeof(tuple.Tuple{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*own {
		t.Fatalf("%d deliveries allocated %.0f B, want ≤ 1.1 × %.0f B", n, got, own)
	}
	if v := c.View(); len(v) != n || v[n-1].ID != n {
		t.Fatalf("view holds %d tuples", len(v))
	}
}

// TestStableViewAllocatesOnce: StableView and View count before they
// allocate, so each costs one allocation however long the view is.
func TestStableViewAllocatesOnce(t *testing.T) {
	c := newTapClient(t)
	const n = 100000
	for i := 1; i <= n; i++ {
		typ := tuple.Insertion
		if i%3 == 0 {
			typ = tuple.Tentative
		}
		c.consume(tuple.Tuple{Type: typ, ID: uint64(i), STime: int64(i)}.WithData(int64(i)))
	}
	if got := len(c.StableView()); got != n-n/3 {
		t.Fatalf("StableView holds %d tuples, want %d", got, n-n/3)
	}
	if a := testing.AllocsPerRun(3, func() { _ = c.StableView() }); a != 1 {
		t.Fatalf("StableView allocates %.0f times on a %d-tuple view, want 1", a, n)
	}
	if a := testing.AllocsPerRun(3, func() { _ = c.View() }); a != 1 {
		t.Fatalf("View allocates %.0f times on a %d-tuple view, want 1", a, n)
	}
}
