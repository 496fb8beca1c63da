package tuple

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTupleIs48Bytes(t *testing.T) {
	// Every frame, log and buffer array is sized in Tuples; a field
	// reordering that reopens the padding hole after STime costs them all
	// a seventh more memory.
	if sz := unsafe.Sizeof(Tuple{}); sz != 48 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("sizeof(Tuple) = %d, want 48", sz)
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Insertion: "INSERTION",
		Tentative: "TENTATIVE",
		Boundary:  "BOUNDARY",
		Undo:      "UNDO",
		RecDone:   "REC_DONE",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type String() = %q", got)
	}
}

func TestIsData(t *testing.T) {
	if !Insertion.IsData() || !Tentative.IsData() {
		t.Error("insertion and tentative must be data types")
	}
	if Boundary.IsData() || Undo.IsData() || RecDone.IsData() {
		t.Error("control types must not be data types")
	}
}

func TestConstructors(t *testing.T) {
	in := NewInsertion(42, 1, 2)
	if in.Type != Insertion || in.STime != 42 || in.Field(0) != 1 || in.Field(1) != 2 {
		t.Errorf("NewInsertion wrong: %v", in)
	}
	te := NewTentative(7, 3)
	if te.Type != Tentative || te.STime != 7 {
		t.Errorf("NewTentative wrong: %v", te)
	}
	b := NewBoundary(100)
	if b.Type != Boundary || b.STime != 100 {
		t.Errorf("NewBoundary wrong: %v", b)
	}
	u := NewUndo(55)
	if u.Type != Undo || u.ID != 55 {
		t.Errorf("NewUndo wrong: %v", u)
	}
	r := NewRecDone(9)
	if r.Type != RecDone || r.STime != 9 {
		t.Errorf("NewRecDone wrong: %v", r)
	}
}

func TestTentativeStableConversion(t *testing.T) {
	in := NewInsertion(1, 5)
	te := in.AsTentative()
	if te.Type != Tentative {
		t.Error("AsTentative did not mark tentative")
	}
	if in.Type != Insertion {
		t.Error("AsTentative mutated receiver")
	}
	back := te.AsStable()
	if back.Type != Insertion {
		t.Error("AsStable did not mark stable")
	}
	// Control tuples pass through unchanged.
	b := NewBoundary(3)
	if b.AsTentative().Type != Boundary {
		t.Error("AsTentative changed a boundary")
	}
	u := NewUndo(1)
	if u.AsStable().Type != Undo {
		t.Error("AsStable changed an undo")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := NewInsertion(1, 10, 20)
	c := orig.Clone()
	c.SetField(nil, 0, 99)
	if orig.Field(0) != 10 {
		t.Error("Clone shares the payload with the original")
	}
	long := NewInsertion(1, 1, 2, 3)
	lc := long.Clone()
	lc.SetField(nil, 2, 99)
	if long.Field(2) != 3 || lc.Field(2) != 99 {
		t.Error("Clone shares a long payload with the original")
	}
	empty := Tuple{}
	if got := empty.Clone(); got.Len() != 0 {
		t.Error("Clone of an empty payload should stay empty")
	}
}

func TestFieldOutOfRange(t *testing.T) {
	tp := NewInsertion(1, 7)
	if tp.Field(0) != 7 {
		t.Error("Field(0) wrong")
	}
	if tp.Field(1) != 0 || tp.Field(-1) != 0 {
		t.Error("out-of-range Field should return 0")
	}
}

func TestLessOrdering(t *testing.T) {
	a := Tuple{STime: 1, Src: 0, ID: 5}
	b := Tuple{STime: 2, Src: 0, ID: 1}
	if !Less(a, b) || Less(b, a) {
		t.Error("STime must dominate ordering")
	}
	c := Tuple{STime: 1, Src: 1, ID: 0}
	if !Less(a, c) || Less(c, a) {
		t.Error("Src must break STime ties")
	}
	d := Tuple{STime: 1, Src: 0, ID: 6}
	if !Less(a, d) || Less(d, a) {
		t.Error("ID must break (STime, Src) ties")
	}
}

func TestEqualAndSameValue(t *testing.T) {
	a := Tuple{Type: Insertion, ID: 1, STime: 5}.WithData(1, 2)
	b := a.Clone()
	if !Equal(a, b) {
		t.Error("clones must be Equal")
	}
	b.ID = 2
	if Equal(a, b) {
		t.Error("different IDs must not be Equal")
	}
	if !SameValue(a, b) {
		t.Error("SameValue ignores ID")
	}
	tb := a.AsTentative()
	if !SameValue(a, tb) {
		t.Error("SameValue ignores stability")
	}
	c := a.Clone()
	c.SetField(nil, 1, 99)
	if SameValue(a, c) {
		t.Error("SameValue must compare payloads")
	}
	d := a.Clone()
	d.SetData(nil, a.Field(0))
	if Equal(a, d) || SameValue(a, d) {
		t.Error("length mismatch must not compare equal")
	}
}

func TestCountData(t *testing.T) {
	ts := []Tuple{NewInsertion(1), NewTentative(2), NewBoundary(3), NewUndo(0), NewRecDone(4)}
	if got := CountData(ts); got != 2 {
		t.Errorf("CountData = %d, want 2", got)
	}
}

func TestApplyUndo(t *testing.T) {
	mk := func(ids ...uint64) []Tuple {
		var ts []Tuple
		for _, id := range ids {
			ts = append(ts, Tuple{Type: Insertion, ID: id})
		}
		return ts
	}
	ts := mk(1, 2, 3, 4, 5)
	got := ApplyUndo(ts, 3)
	if len(got) != 3 || got[2].ID != 3 {
		t.Errorf("ApplyUndo(…, 3) = %v", got)
	}
	// Undo before the buffered window: unchanged (IDs 10..12, undo to 3).
	ts2 := mk(10, 11, 12)
	if got := ApplyUndo(ts2, 3); len(got) != 3 {
		t.Errorf("undo before window should keep buffer, got %v", got)
	}
	// Undo to zero removes everything.
	if got := ApplyUndo(mk(1, 2), 0); len(got) != 0 {
		t.Errorf("undo to 0 should clear, got %v", got)
	}
	// Non-data tuples with a matching ID are skipped.
	mixed := []Tuple{{Type: Insertion, ID: 1}, {Type: Boundary, ID: 2}, {Type: Insertion, ID: 2}, {Type: Insertion, ID: 3}}
	got = ApplyUndo(mixed, 2)
	if len(got) != 3 || got[2].Type != Insertion || got[2].ID != 2 {
		t.Errorf("ApplyUndo should anchor on data tuples: %v", got)
	}
	// A Tentative whose provisional id collides with the undo id must NOT
	// anchor the patch: the undo names a stable prefix, so the tentative
	// run after the true anchor has to go. Anchoring on the collision kept
	// revoked tentative tuples in the client proxy's arrival log and
	// wedged its stable cursor (corpus scenario crash-inside-partition).
	collide := []Tuple{
		{Type: Insertion, ID: 1}, {Type: Insertion, ID: 2},
		{Type: Tentative, ID: 3}, {Type: Tentative, ID: 4}, {Type: Tentative, ID: 2},
	}
	got = ApplyUndo(collide, 2)
	if len(got) != 2 || got[1].Type != Insertion || got[1].ID != 2 {
		t.Errorf("ApplyUndo must anchor on the stable Insertion, not a colliding Tentative: %v", got)
	}
	// Same collision with the anchor outside the window: the fallback
	// must strip the tentative suffix rather than keep it.
	tail := []Tuple{{Type: Tentative, ID: 9}, {Type: Tentative, ID: 5}}
	if got := ApplyUndo(tail, 5); len(got) != 0 {
		t.Errorf("fallback must drop colliding tentative tuples, got %v", got)
	}
}

func TestStringFormat(t *testing.T) {
	tp := Tuple{Type: Tentative, ID: 3, STime: 9, Src: 1}.WithData(4)
	s := tp.String()
	for _, want := range []string{"TENTATIVE", "id=3", "stime=9", "src=1", "data=[4]"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: Less defines a strict weak ordering usable by sort; sorting any
// slice produces a non-decreasing (STime, Src, ID) sequence.
func TestQuickLessSorts(t *testing.T) {
	f := func(stimes []int8, srcs []int8, ids []uint8) bool {
		n := len(stimes)
		if len(srcs) < n {
			n = len(srcs)
		}
		if len(ids) < n {
			n = len(ids)
		}
		ts := make([]Tuple, n)
		for i := 0; i < n; i++ {
			ts[i] = Tuple{STime: int64(stimes[i]), Src: int32(srcs[i]), ID: uint64(ids[i])}
		}
		sort.Slice(ts, func(i, j int) bool { return Less(ts[i], ts[j]) })
		for i := 1; i < n; i++ {
			if Less(ts[i], ts[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ApplyUndo never lengthens a buffer and the result is a prefix.
func TestQuickApplyUndoPrefix(t *testing.T) {
	f := func(ids []uint8, cut uint8) bool {
		ts := make([]Tuple, len(ids))
		for i, id := range ids {
			ts[i] = Tuple{Type: Insertion, ID: uint64(id)}
		}
		orig := make([]Tuple, len(ts))
		copy(orig, ts)
		got := ApplyUndo(ts, uint64(cut))
		if len(got) > len(orig) {
			return false
		}
		for i := range got {
			if got[i].ID != orig[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
