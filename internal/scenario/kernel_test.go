package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"borealis/internal/operator"
	"borealis/internal/tuple"
)

// The stateless equivalence wall: the spec's filter and map kernels
// (operator.NewFieldFilter / NewFieldMap) against the per-tuple closures
// compileOperators built before them, kept verbatim in refOperators. Frames
// cover all five tuple types, payloads of length 0–3 with the field past
// the end, extreme values, negative and large moduli and overflowing
// scales, cut at random points and fed through both ProcessBatch and
// per-tuple Process.

// refOperators compiles a node's filters and maps the way compileOperators
// did before the kernels: the reference the kernels are held to.
func refOperators(n *NodeSpec) []operator.Operator {
	var ops []operator.Operator
	for i, op := range n.Operators {
		name := fmt.Sprintf("%s%d", op.Kind, i+1)
		switch op.Kind {
		case "filter":
			field, mod := op.Field, op.Modulo
			if mod == 0 {
				mod = 2
			}
			ops = append(ops, operator.NewFilter(name, func(t tuple.Tuple) bool {
				return t.Field(field)%mod == 0
			}))
		case "map":
			field, scale := op.Field, op.Scale
			if scale == 0 {
				scale = 2
			}
			// Payloads come from a per-operator arena: map output
			// lives exactly as long as any other payload (logs,
			// buffers), and chunk-carving keeps millions of tiny
			// []int64 from individually burdening the GC. The
			// operator is single-threaded, so the arena needs no
			// locking; slices are immutable downstream.
			var arena tuple.I64Arena
			ops = append(ops, operator.NewMap(name, func(d []int64) []int64 {
				out := arena.Alloc(len(d))
				copy(out, d)
				if field < len(out) {
					out[field] *= scale
				}
				return out
			}))
		}
	}
	return ops
}

var (
	kernelValues = []int64{0, 1, -1, 2, -2, 3, -3, 6, 7, -42, 1 << 32,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	// Zero is the spec's "use the default" for both fields.
	kernelModuli = []int64{0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7,
		1 << 40, -(1 << 40) - 3, math.MaxInt64, math.MinInt64}
	kernelScales = []int64{0, 1, -1, 2, 3, -7, 1 << 33, math.MaxInt64, math.MinInt64}
)

// genKernelStream draws n tuples of all five types. Data payloads hold 0–3
// values drawn from the extremes or at random; a third of them are carved
// from one shared arena, as long payloads delivered from an upstream join
// are; control tuples sometimes carry a payload no operator may touch.
func genKernelStream(r *rand.Rand, n int) []tuple.Tuple {
	var shared tuple.I64Arena
	value := func() int64 {
		if r.Intn(2) == 0 {
			return kernelValues[r.Intn(len(kernelValues))]
		}
		return r.Int63() - r.Int63()
	}
	setPayload := func(t *tuple.Tuple) {
		d := make([]int64, r.Intn(4))
		for i := range d {
			d[i] = value()
		}
		var a *tuple.I64Arena
		if r.Intn(3) == 0 {
			a = &shared
		}
		t.SetData(a, d...)
	}
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		t := tuple.Tuple{STime: int64(i), ID: uint64(i), Src: int32(r.Intn(2))}
		switch u := r.Float64(); {
		case u < 0.6:
			t.Type = tuple.Insertion
			setPayload(&t)
		case u < 0.8:
			t.Type = tuple.Tentative
			setPayload(&t)
		case u < 0.9:
			t.Type = tuple.Boundary
		case u < 0.95:
			t.Type = tuple.Undo
		default:
			t.Type = tuple.RecDone
		}
		if !t.IsData() && r.Intn(4) == 0 {
			setPayload(&t)
		}
		ts[i] = t
	}
	return ts
}

// sink collects an operator's emissions from both of its Env paths.
type sink struct{ out []tuple.Tuple }

func attachSink(op operator.Operator) *sink {
	s := &sink{}
	op.Attach(&operator.Env{
		Now:  func() int64 { return 0 },
		Emit: func(t tuple.Tuple) { s.out = append(s.out, t) },
		EmitLoan: func(ts []tuple.Tuple) bool {
			s.out = append(s.out, ts...)
			return false
		},
	})
	return s
}

// feed runs one frame through op, batched or tuple by tuple.
func feed(t *testing.T, op operator.Operator, frame []tuple.Tuple, batch bool) {
	t.Helper()
	if batch {
		if !op.(operator.BatchProcessor).ProcessBatch(0, frame) {
			t.Fatalf("%s declined a batch", op.Name())
		}
		return
	}
	for _, tp := range frame {
		op.Process(0, tp)
	}
}

// deepCopy copies a frame with every payload on its own array.
func deepCopy(ts []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ts))
	for i := range ts {
		out[i] = ts[i].Clone()
	}
	return out
}

// sameContent compares two tuple sequences field by field and payload by
// payload value, wherever the payloads lie.
func sameContent(a, b []tuple.Tuple) bool {
	return slices.EqualFunc(a, b, tuple.Equal)
}

// runAgainstReference feeds one seeded stream, cut into random frames,
// through a kernel and its reference, comparing emissions, Passed() and
// Checkpoint() after every frame and restoring an earlier checkpoint into
// both now and then. Each operator gets its own copy of the frame, as the
// engine gives a mutating operator, sharing the long payloads; the input
// frame, long payloads included, must be left untouched.
func runAgainstReference(t *testing.T, r *rand.Rand, kernel, ref operator.Operator) {
	t.Helper()
	ks, rs := attachSink(kernel), attachSink(ref)
	stream := genKernelStream(r, 400)
	var cps [][2]any
	for len(stream) > 0 {
		n := min(len(stream), 1+r.Intn(64))
		frame := stream[:n]
		stream = stream[n:]
		before := deepCopy(frame)
		ks.out, rs.out = ks.out[:0], rs.out[:0]
		feed(t, kernel, slices.Clone(frame), r.Intn(2) == 0)
		feed(t, ref, slices.Clone(frame), r.Intn(2) == 0)
		if !sameContent(ks.out, rs.out) {
			t.Fatalf("%s emitted %v, reference %v", kernel.Name(), ks.out, rs.out)
		}
		if !sameContent(frame, before) {
			t.Fatalf("%s changed its input frame: %v, was %v", kernel.Name(), frame, before)
		}
		if kf, ok := kernel.(*operator.Filter); ok && kf.Passed() != ref.(*operator.Filter).Passed() {
			t.Fatalf("Passed() = %d, reference %d", kf.Passed(), ref.(*operator.Filter).Passed())
		}
		kc, rc := kernel.Checkpoint(), ref.Checkpoint()
		if !reflect.DeepEqual(kc, rc) {
			t.Fatalf("Checkpoint() = %v, reference %v", kc, rc)
		}
		cps = append(cps, [2]any{kc, rc})
		if r.Intn(8) == 0 {
			cp := cps[r.Intn(len(cps))]
			kernel.Restore(cp[0])
			ref.Restore(cp[1])
		}
	}
}

func TestStatelessKernelsMatchClosures(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for field := 0; field <= 4; field++ {
		for _, mod := range kernelModuli {
			spec := OperatorSpec{Kind: "filter", Field: field, Modulo: mod}
			node := &NodeSpec{Operators: []OperatorSpec{spec}}
			runAgainstReference(t, r, compileOperators(node, 1)()[0], refOperators(node)[0])
		}
		for _, scale := range kernelScales {
			spec := OperatorSpec{Kind: "map", Field: field, Scale: scale}
			node := &NodeSpec{Operators: []OperatorSpec{spec}}
			runAgainstReference(t, r, compileOperators(node, 1)()[0], refOperators(node)[0])
		}
	}
}

// runChain pushes a frame through a node's operator list, the way the
// engine does: tuple by tuple down the emit chain, or stage by stage with
// each stage's frame loaned to the next.
func runChain(t *testing.T, ops []operator.Operator, frame []tuple.Tuple, batch bool) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if !batch {
		for i, op := range ops {
			env := &operator.Env{Now: func() int64 { return 0 }}
			if i+1 < len(ops) {
				next := ops[i+1]
				env.Emit = func(tp tuple.Tuple) { next.Process(0, tp) }
			} else {
				env.Emit = func(tp tuple.Tuple) { out = append(out, tp) }
			}
			op.Attach(env)
		}
		for _, tp := range frame {
			ops[0].Process(0, tp)
		}
		return out
	}
	cur := frame
	for _, op := range ops {
		var loaned []tuple.Tuple
		op.Attach(&operator.Env{
			Now:      func() int64 { return 0 },
			EmitLoan: func(ts []tuple.Tuple) bool { loaned = ts; return true },
		})
		feed(t, op, cur, true)
		cur = loaned
	}
	return cur
}

// TestCompiledNodesKeepInputPayloads runs compiled stateless node lists on
// both paths, each on its own copy of the frame: every input payload must
// be bit-identical afterwards (a long payload arriving from an SUnion is
// shared with upstream logs and buffers), and the output must match the
// reference closures'.
func TestCompiledNodesKeepInputPayloads(t *testing.T) {
	m := func(scale int64) OperatorSpec { return OperatorSpec{Kind: "map", Scale: scale} }
	f := func(mod int64) OperatorSpec { return OperatorSpec{Kind: "filter", Modulo: mod} }
	shapes := map[string][]OperatorSpec{
		"one map":          {m(3)},
		"two maps":         {m(3), m(-5)},
		"map-filter-map":   {m(3), f(2), m(7)},
		"filter first":     {f(3), m(5), m(3)},
		"bench node":       {f(1), m(3), f(1), m(2), f(1)},
		"three maps":       {m(2), m(3), f(-2), m(5)},
		"filter, map only": {f(2), m(3)},
	}
	r := rand.New(rand.NewSource(7))
	for name, ops := range shapes {
		t.Run(name, func(t *testing.T) {
			node := &NodeSpec{Operators: ops}
			for _, batch := range []bool{false, true} {
				frame := genKernelStream(r, 500)
				before := deepCopy(frame)
				want := runChain(t, refOperators(node), deepCopy(frame), false)
				got := runChain(t, compileOperators(node, 1)(), slices.Clone(frame), batch)
				for i := range frame {
					if !slices.Equal(frame[i].Values(), before[i].Values()) {
						t.Fatalf("batch=%v: input %d payload %v, was %v", batch, i, frame[i].Values(), before[i].Values())
					}
				}
				if !sameContent(got, want) {
					t.Fatalf("batch=%v: output differs from the reference closures", batch)
				}
			}
		})
	}
}

// BenchmarkStatelessKernels times one 2 048-tuple frame per operation
// through each kernel, as the staged plane runs it. Neither kernel may
// allocate per frame, so the benchmark smoke (-benchtime 1x) gates that.
func BenchmarkStatelessKernels(b *testing.B) {
	frame := make([]tuple.Tuple, 2048)
	for i := range frame {
		frame[i] = tuple.NewInsertion(int64(i), int64(i), 1)
	}
	cases := []struct {
		name string
		op   operator.Operator
	}{
		{"filter", operator.NewFieldFilter("filter", 0, 1)},
		{"map", operator.NewFieldMap("map", 0, 3)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.op.Attach(&operator.Env{EmitLoan: func([]tuple.Tuple) bool { return true }})
			bp := c.op.(operator.BatchProcessor)
			step := func() { bp.ProcessBatch(0, frame) }
			if a := testing.AllocsPerRun(10, step); a != 0 {
				b.Fatalf("%s allocates %.1f times per frame, want 0", c.name, a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frame)), "ns/tuple")
		})
	}
}
