package operator

import (
	"fmt"
	"testing"

	"borealis/internal/tuple"
)

// BenchmarkAggregate measures the per-tuple cost of the aggregate in steady
// state, one input tuple per op: tumbling windows and 4-deep sliding ones
// (every tuple lands in four open windows), without grouping and with 64
// groups. A window spans 1 000 tuples, so closes — sort, emit, recycle the
// slot — are amortized in at their real share.
func BenchmarkAggregate(b *testing.B) {
	const size = 1000
	for _, w := range []struct {
		name  string
		slide int64
	}{{"tumbling", size}, {"sliding4", size / 4}} {
		for _, groups := range []int{0, 64} {
			name, groupField := w.name+"/nogroup", -1
			if groups > 0 {
				name, groupField = fmt.Sprintf("%s/groups=%d", w.name, groups), 1
			}
			b.Run(name, func(b *testing.B) {
				a := NewAggregate("a", AggregateConfig{Size: size, Slide: w.slide, Fn: AggSum, ValueField: 0, GroupField: groupField})
				emitted := 0
				a.Attach(benchSink(&emitted))
				payloads := make([][]int64, 1<<10)
				for i := range payloads {
					payloads[i] = []int64{int64(i), int64(i*7) % int64(max(groups, 1))}
				}
				next := int64(0)
				feed := func(n int) {
					for end := next + int64(n); next < end; next++ {
						a.Process(0, tuple.Tuple{Type: tuple.Insertion, STime: next}.WithData(payloads[next&int64(len(payloads)-1)]...))
					}
				}
				feed(3 * size) // open the full set of windows, grow every slot's buffers
				if got, want := a.OpenWindows(), int(size/w.slide); got != want {
					b.Fatalf("steady state holds %d open windows, want %d", got, want)
				}
				b.ReportAllocs()
				b.ResetTimer()
				feed(b.N)
				b.StopTimer()
				if emitted == 0 {
					b.Fatal("no window closed")
				}
			})
		}
	}
}
