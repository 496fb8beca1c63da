package operator

import (
	"math"
	"math/bits"

	"borealis/internal/tuple"
)

// Filter tests each data tuple against a predicate and forwards the ones
// that pass. Control tuples (boundaries, undo, rec-done) pass through
// unconditionally so that punctuation and recovery markers are never lost.
// Filter is stateless and therefore convergent-capable (§8.1).
//
// The predicate is either a Go closure (NewFilter) or the scenario spec's
// divisibility kernel (NewFieldFilter), which reads the field in place
// instead of copying every tuple into a call.
type Filter struct {
	Base
	pred  func(tuple.Tuple) bool // nil for the kernel
	field int
	// The kernel's divisibility test (see newDivisor).
	div divisor
	// passed counts forwarded data tuples; checkpointed so that a
	// restored operator reports consistent statistics.
	passed uint64
}

// NewFilter builds a filter from a predicate. The predicate must be a pure
// function of the tuple's value for the operator to stay deterministic.
func NewFilter(name string, pred func(tuple.Tuple) bool) *Filter {
	if pred == nil {
		panic("operator: nil filter predicate")
	}
	return &Filter{Base: NewBase(name), pred: pred}
}

// NewFieldFilter builds the kernel filter that keeps a data tuple when its
// payload field is divisible by modulo, with Go's % semantics. A payload
// too short to hold the field reads 0, so such a tuple is kept.
func NewFieldFilter(name string, field int, modulo int64) *Filter {
	if field < 0 || modulo == 0 {
		panic("operator: field filter needs field ≥ 0 and a non-zero modulo")
	}
	return &Filter{Base: NewBase(name), field: field, div: newDivisor(modulo)}
}

// divisor tests v % modulo == 0 without a division (Granlund and
// Montgomery; Hacker's Delight §10-17). The sign of either operand does
// not decide divisibility, so the test runs on |v| and d = |modulo| =
// odd·2^shift: |v| is a multiple of d exactly when rotating |v|·odd⁻¹
// (mod 2⁶⁴) right by shift gives at most ⌊(2⁶⁴−1)/d⌋. Multiplying by the
// inverse maps the multiples of odd one-to-one onto [0, ⌊(2⁶⁴−1)/odd⌋],
// and the rotation moves any of the low shift bits — which a multiple of
// 2^shift has zero — to the top, past that limit.
type divisor struct {
	inv   uint64 // the inverse of odd mod 2⁶⁴
	shift int
	limit uint64 // ⌊(2⁶⁴−1)/d⌋
}

func newDivisor(modulo int64) divisor {
	d := uint64(modulo) // |MinInt64| = 2⁶³ is exact as a uint64
	if modulo < 0 {
		d = -d
	}
	shift := bits.TrailingZeros64(d)
	odd := d >> shift
	inv := odd // correct to 3 bits for odd; each Newton step doubles them
	for range 5 {
		inv *= 2 - odd*inv
	}
	return divisor{inv: inv, shift: shift, limit: math.MaxUint64 / d}
}

// divides reports v % modulo == 0.
func (d divisor) divides(v int64) bool {
	s := v >> 63
	u := uint64((v ^ s) - s) // |v| without a branch; |MinInt64| = 2⁶³ as above
	return bits.RotateLeft64(u*d.inv, -d.shift) <= d.limit
}

// Inputs returns 1.
func (f *Filter) Inputs() int { return 1 }

// Process forwards data tuples that satisfy the predicate.
func (f *Filter) Process(_ int, t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	if f.compact(one[:]) == 1 {
		f.Emit(one[0])
	}
}

// compact moves the tuples that pass — every control tuple and each data
// tuple the predicate keeps — to the front of ts in order and returns how
// many passed. It is the one per-tuple step of Process, on a one-tuple
// frame, and of ProcessBatch. The write index never passes the read index,
// and slots are only rewritten once a gap exists.
func (f *Filter) compact(ts []tuple.Tuple) int {
	pred, field, div, passed := f.pred, f.field, f.div, f.passed
	j := 0
	for i := range ts {
		if t := &ts[i]; t.IsData() {
			var keep bool
			if pred != nil {
				keep = pred(*t)
			} else {
				keep = div.divides(t.Field(field)) // a payload too short reads 0
			}
			if !keep {
				continue
			}
			passed++
		}
		if j != i {
			ts[j] = ts[i]
		}
		j++
	}
	f.passed = passed
	return j
}

// Passed returns the number of data tuples forwarded so far.
func (f *Filter) Passed() uint64 { return f.passed }

type filterState struct{ Passed uint64 }

// Checkpoint snapshots the filter.
func (f *Filter) Checkpoint() any { return filterState{Passed: f.passed} }

// Restore reinstates a snapshot.
func (f *Filter) Restore(s any) { f.passed = s.(filterState).Passed }

// Map transforms each data tuple's payload, leaving type, timestamp and
// identity intact. Map is stateless and therefore convergent-capable
// (§8.1).
//
// The transformation is either a pure Go function (NewMap) or the scenario
// spec's scaling kernel (NewFieldMap). Either rewrites the payload in the
// tuple it is given: copying a tuple copies a payload of up to two values,
// so no one else can see the write, and a longer payload, immutable once
// published, is copied into the map's arena first.
type Map struct {
	Base
	fn    func([]int64) []int64 // nil for the kernel
	field int
	scale int64
	// arena carves the long payloads the map writes, and in holds fn's
	// argument, so the frame never escapes into an unknown function. The
	// operator is single-threaded, so neither needs locking.
	arena tuple.I64Arena
	in    []int64
}

// NewMap builds a map operator from a pure payload transformation. fn's
// argument is a scratch copy of the payload, valid only during the call;
// the map copies the values fn returns into the tuple.
func NewMap(name string, fn func([]int64) []int64) *Map {
	if fn == nil {
		panic("operator: nil map function")
	}
	return &Map{Base: NewBase(name), fn: fn}
}

// NewFieldMap builds the kernel map that multiplies a data tuple's payload
// field by scale, with Go's wrapping *. A payload too short to hold the
// field is left unchanged.
func NewFieldMap(name string, field int, scale int64) *Map {
	if field < 0 {
		panic("operator: field map needs field ≥ 0")
	}
	return &Map{Base: NewBase(name), field: field, scale: scale}
}

// Inputs returns 1.
func (m *Map) Inputs() int { return 1 }

// Process transforms data tuples and forwards control tuples untouched.
func (m *Map) Process(_ int, t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	m.apply(one[:])
	m.Emit(one[0])
}

// apply transforms every data tuple of ts where it lies in the frame: the
// one per-tuple step of Process, on a one-tuple frame, and of
// ProcessBatch.
func (m *Map) apply(ts []tuple.Tuple) {
	fn, field, scale := m.fn, m.field, m.scale
	for i := range ts {
		t := &ts[i]
		if !t.IsData() {
			continue
		}
		if fn != nil {
			m.in = append(m.in[:0], t.Values()...)
			t.SetData(&m.arena, fn(m.in)...)
			continue
		}
		t.SetField(&m.arena, field, t.Field(field)*scale)
	}
}

// Checkpoint returns nil: Map is stateless.
func (m *Map) Checkpoint() any { return nil }

// Restore is a no-op for the stateless Map.
func (m *Map) Restore(any) {}

// Union is the plain Borealis merge operator. DPC replaces it with SUnion;
// it is kept (a) as the non-fault-tolerant baseline used for the zero-delay
// columns of Tables IV and V, and (b) for diagrams that opt out of DPC.
//
// Union forwards data tuples in arrival order. For boundaries it emits the
// minimum watermark across its inputs, so downstream punctuation remains
// sound. REC_DONE is forwarded once all inputs produced one.
type Union struct {
	Base
	inputs    int
	bounds    []int64
	sent      int64
	recDoneIn []bool
}

// NewUnion builds a plain union with n input ports.
func NewUnion(name string, n int) *Union {
	if n < 1 {
		panic("operator: union needs at least one input")
	}
	b := make([]int64, n)
	for i := range b {
		b[i] = -1
	}
	return &Union{Base: NewBase(name), inputs: n, bounds: b, sent: -1, recDoneIn: make([]bool, n)}
}

// Inputs returns the number of input ports.
func (u *Union) Inputs() int { return u.inputs }

// Process forwards data immediately and boundaries at the minimum watermark.
func (u *Union) Process(port int, t tuple.Tuple) {
	switch t.Type {
	case tuple.Boundary:
		if t.STime > u.bounds[port] {
			u.bounds[port] = t.STime
		}
		min := u.bounds[0]
		for _, b := range u.bounds[1:] {
			if b < min {
				min = b
			}
		}
		if min > u.sent {
			u.sent = min
			u.Emit(tuple.NewBoundary(min))
		}
	case tuple.RecDone:
		u.recDoneIn[port] = true
		for _, ok := range u.recDoneIn {
			if !ok {
				return
			}
		}
		for i := range u.recDoneIn {
			u.recDoneIn[i] = false
		}
		u.Emit(t)
	default:
		tt := t
		tt.Src = int32(port)
		u.Emit(tt)
	}
}

type unionState struct {
	Bounds  []int64
	Sent    int64
	RecDone []bool
}

// Checkpoint snapshots the union's watermarks.
func (u *Union) Checkpoint() any {
	return unionState{
		Bounds:  append([]int64(nil), u.bounds...),
		Sent:    u.sent,
		RecDone: append([]bool(nil), u.recDoneIn...),
	}
}

// Restore reinstates a snapshot.
func (u *Union) Restore(s any) {
	st := s.(unionState)
	copy(u.bounds, st.Bounds)
	u.sent = st.Sent
	copy(u.recDoneIn, st.RecDone)
}
