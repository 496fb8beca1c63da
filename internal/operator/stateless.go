package operator

import "borealis/internal/tuple"

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
	pred   func(tuple.Tuple) bool // nil for the kernel
	field  int
	modulo int64
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
	return &Filter{Base: NewBase(name), field: field, modulo: modulo}
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
	pred, field, modulo, passed := f.pred, f.field, f.modulo, f.passed
	j := 0
	for i := range ts {
		if t := &ts[i]; t.IsData() {
			var keep bool
			if pred != nil {
				keep = pred(*t)
			} else {
				var v int64 // a payload too short for the field reads 0
				if uint(field) < uint(len(t.Data)) {
					v = t.Data[field]
				}
				keep = v%modulo == 0
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
// spec's scaling kernel (NewFieldMap).
type Map struct {
	Base
	fn      func([]int64) []int64 // nil for the kernel
	field   int
	scale   int64
	inPlace bool
	// arena carves the kernel's fresh payloads: they live exactly as long
	// as any other payload (logs, buffers), and chunk-carving keeps
	// millions of tiny []int64 from individually burdening the GC. The
	// operator is single-threaded, so the arena needs no locking.
	arena tuple.I64Arena
}

// NewMap builds a map operator from a pure payload transformation.
func NewMap(name string, fn func([]int64) []int64) *Map {
	if fn == nil {
		panic("operator: nil map function")
	}
	return &Map{Base: NewBase(name), fn: fn}
}

// NewFieldMap builds the kernel map that multiplies a data tuple's payload
// field by scale, with Go's wrapping *. A payload too short to hold the
// field is left unchanged.
//
// By default the kernel writes a fresh copy of each payload, since payloads
// arriving from an SUnion alias upstream logs and buffers. inPlace scales
// the payload where it lies instead; it is sound only when no one else can
// hold that payload, such as a payload an upstream kernel map of the same
// node just copied, with only filters in between.
func NewFieldMap(name string, field int, scale int64, inPlace bool) *Map {
	if field < 0 {
		panic("operator: field map needs field ≥ 0")
	}
	return &Map{Base: NewBase(name), field: field, scale: scale, inPlace: inPlace}
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
// ProcessBatch. The arena is carved through a local copy, stored back
// once per frame rather than once per tuple.
func (m *Map) apply(ts []tuple.Tuple) {
	fn, field, scale, inPlace, arena := m.fn, m.field, m.scale, m.inPlace, m.arena
	for i := range ts {
		t := &ts[i]
		if !t.IsData() {
			continue
		}
		if fn != nil {
			t.Data = fn(t.Data)
			continue
		}
		d := t.Data
		if !inPlace {
			c := arena.Alloc(len(d))
			for k, v := range d { // a few values: cheaper than copy's memmove call
				c[k] = v
			}
			d, t.Data = c, c
		}
		if uint(field) < uint(len(d)) {
			d[field] *= scale
		}
	}
	m.arena = arena
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
