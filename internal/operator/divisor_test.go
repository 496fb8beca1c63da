package operator

import (
	"math"
	"math/rand"
	"testing"

	"borealis/internal/tuple"
)

// TestDivisorMatchesRemainder holds the filter kernel's multiply-rotate
// divisibility test to Go's v%modulo == 0 over the extremes, ±1, every
// signed power of two and their neighbours, and random pairs, including
// moduli that divide their values by construction.
func TestDivisorMatchesRemainder(t *testing.T) {
	special := []int64{0, 1, -1, 3, -3, 7, 10, -12, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt32, math.MinInt32}
	for k := 0; k < 63; k++ {
		p := int64(1) << k
		special = append(special, p, -p, p+1, p-1, -p+1, -p-1, 3*p, -5*p)
	}
	check := func(v, m int64) {
		t.Helper()
		if m == 0 {
			return
		}
		if got, want := newDivisor(m).divides(v), v%m == 0; got != want {
			t.Fatalf("divides(%d) by %d = %v, %% says %v", v, m, got, want)
		}
	}
	for _, m := range special {
		for _, v := range special {
			check(v, m)
		}
	}
	r := rand.New(rand.NewSource(34))
	for range 200_000 {
		m := r.Int63() >> r.Intn(63)
		if r.Intn(2) == 0 {
			m = -m
		}
		v := r.Int63() - r.Int63()
		check(v, m)
		if q := r.Int63n(1 << 20); m != 0 {
			check(q*m, m) // a multiple, possibly wrapped
		}
	}
}

// TestKernelPassAllocatesNothing pins a steady-state staged pass of the
// kernel Map and Filter over a frame at zero allocations: the map scales
// inline payloads where they lie and the filter compacts the frame.
func TestKernelPassAllocatesNothing(t *testing.T) {
	template := make([]tuple.Tuple, 1024)
	for i := range template {
		template[i] = tuple.NewInsertion(int64(i), int64(i), 1)
		if i%100 == 0 {
			template[i] = tuple.NewBoundary(int64(i))
		}
	}
	frame := make([]tuple.Tuple, len(template))
	m, f := NewFieldMap("m", 0, 3), NewFieldFilter("f", 0, 2)
	loan := &Env{EmitLoan: func([]tuple.Tuple) bool { return true }}
	m.Attach(loan)
	f.Attach(loan)
	pass := func() {
		copy(frame, template)
		m.ProcessBatch(0, frame)
		f.ProcessBatch(0, frame)
	}
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Fatalf("a Map+Filter pass over a %d-tuple frame allocated %.1f times, want 0", len(frame), a)
	}
}

// BenchmarkFieldFilter times the divisibility kernel over a 2 048-tuple
// frame of random multiples of the modulo: every tuple passes, so the frame
// stays as it is and each pass times the test alone.
func BenchmarkFieldFilter(b *testing.B) {
	const modulo = 6
	frame := make([]tuple.Tuple, 2048)
	r := rand.New(rand.NewSource(1))
	for i := range frame {
		frame[i] = tuple.NewInsertion(int64(i), modulo*(r.Int63n(1<<40)-1<<39), 1)
	}
	f := NewFieldFilter("f", 0, modulo)
	f.Attach(&Env{EmitLoan: func([]tuple.Tuple) bool { return true }})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f.ProcessBatch(0, frame)
	}
	if f.Passed() != uint64(b.N*len(frame)) {
		b.Fatalf("%d of %d tuples passed", f.Passed(), b.N*len(frame))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frame)), "ns/tuple")
}
