package tuple

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// canonical reports whether t's payload is in canonical form: up to two
// values inline with the unused slots zero, a longer payload alone in its
// chunk.
func canonical(t *Tuple) bool {
	if t.long == nil {
		return t.n <= 2 && (t.n > 1 || t.v[1] == 0) && (t.n > 0 || t.v[0] == 0)
	}
	return t.n == 0 && t.v[0] == 0 && t.v[1] > 2 && int(t.v[1]) == len(*t.long)
}

// TestPayloadFormsAgree builds seeded random payloads of 0–5 values through
// every producer — the constructors, WithData, SetData with a nil arena,
// Clone of an arena-carved tuple, the JSON decoder — and requires each to
// come out canonical, with the values it was given, and reflect.DeepEqual
// to agree with Equal between any two of them.
func TestPayloadFormsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	var arena I64Arena
	var built []Tuple
	for i := 0; i < 400; i++ {
		vals := make([]int64, r.Intn(6))
		for k := range vals {
			vals[k] = int64(r.Intn(3)) - 1 // small values, so payloads collide
		}
		stime := int64(r.Intn(2))
		var set Tuple
		set.Type, set.STime = Insertion, stime
		set.SetData(nil, vals...)
		var carved Tuple
		carved.Type, carved.STime = Insertion, stime
		carved.SetData(&arena, vals...)
		js, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Tuple
		if err := json.Unmarshal(js, &decoded); err != nil {
			t.Fatal(err)
		}
		forms := map[string]Tuple{
			"NewInsertion": NewInsertion(stime, vals...),
			"WithData":     Tuple{Type: Insertion, STime: stime}.WithData(vals...),
			"SetData":      set,
			"Clone":        carved.Clone(),
			"JSON":         decoded,
		}
		for name, f := range forms {
			if !canonical(&f) {
				t.Fatalf("%s(%v) is not canonical: %#v", name, vals, f)
			}
			if !slices.Equal(f.Values(), vals) || f.Len() != len(vals) || !Equal(f, carved) {
				t.Fatalf("%s(%v) holds %v", name, vals, f.Values())
			}
			built = append(built, f)
		}
	}
	for i := range built {
		for j := i; j < len(built); j += 1 + r.Intn(40) {
			if deep, eq := reflect.DeepEqual(built[i], built[j]), Equal(built[i], built[j]); deep != eq {
				t.Fatalf("DeepEqual = %v, Equal = %v for %v and %v", deep, eq, built[i], built[j])
			}
		}
	}
}

// TestSetFieldCopiesLongPayloads pins copy on write: an inline value is
// rewritten in the tuple, a long payload's published chunk never is.
func TestSetFieldCopiesLongPayloads(t *testing.T) {
	var arena I64Arena
	var long Tuple
	long.SetData(&arena, 1, 2, 3)
	published := long
	long.SetField(&arena, 1, 20)
	if got := long.Values(); !slices.Equal(got, []int64{1, 20, 3}) {
		t.Fatalf("written long payload %v", got)
	}
	if got := published.Values(); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("published long payload rewritten: %v", got)
	}
	short := NewInsertion(0, 5, 6)
	short.SetField(nil, 0, 50)
	short.SetField(nil, 2, 99) // past the end: ignored
	if got := short.Values(); !slices.Equal(got, []int64{50, 6}) || short.Field(2) != 0 {
		t.Fatalf("inline payload after SetField: %v", got)
	}
}
