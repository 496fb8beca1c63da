package operator

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"borealis/internal/tuple"
)

// benchSink is the Env the stateful-operator benchmarks emit into: it takes
// every loan, as the engine's staged plane does, and counts the tuples.
func benchSink(emitted *int) *Env {
	return &Env{
		Emit:     func(tuple.Tuple) { *emitted++ },
		EmitLoan: func(ts []tuple.Tuple) bool { *emitted += len(ts); return true },
		Now:      func() int64 { return 0 },
	}
}

// joinBenchKeys draws the payload table a join benchmark cycles through:
// tuple i carries payloads[i % len]. Sides alternate, so tuples 2k and 2k+1
// form a left/right pair; "unique" gives each pair its own key (the table is
// longer than any benchmarked window, so keys never repeat inside one),
// "hotkey" gives every tuple the same key, "zipf" draws from a long tail.
func joinBenchKeys(dist string) [][]int64 {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.3, 1, 1<<20)
	payloads := make([][]int64, 1<<15)
	for i := range payloads {
		switch dist {
		case "unique":
			payloads[i] = []int64{int64(i / 2)}
		case "hotkey":
			payloads[i] = []int64{7}
		case "zipf":
			payloads[i] = []int64{int64(zipf.Uint64())}
		}
	}
	return payloads
}

// joinBench is one steady-state join run: tuple i arrives at stime i on side
// i%2, so a Window of 2·window stime units keeps window tuples per side.
type joinBench struct {
	j        *SJoin
	payloads [][]int64
	next     int64
	emitted  int
}

func newJoinBench(window int, dist string) *joinBench {
	jb := &joinBench{
		j:        NewSJoin("j", JoinConfig{Window: int64(2 * window)}),
		payloads: joinBenchKeys(dist),
	}
	jb.j.Attach(benchSink(&jb.emitted))
	jb.feed(4 * window) // fill both windows, grow rings, tables and scratch
	return jb
}

func (jb *joinBench) feed(n int) {
	mask := int64(len(jb.payloads) - 1)
	for end := jb.next + int64(n); jb.next < end; jb.next++ {
		i := jb.next
		jb.j.Process(0, tuple.Tuple{Type: tuple.Insertion, STime: i, Src: int32(i & 1)}.WithData(jb.payloads[i&mask]...))
	}
}

// measure times a fixed feed outside the testing.B machinery, so the
// figures do not depend on -benchtime: ns and mallocs per input tuple.
func (jb *joinBench) measure(n int) (nsPerTuple, allocsPerTuple float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	jb.feed(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// BenchmarkSJoin measures the per-tuple cost of the join in steady state
// across window sizes and key distributions, one input tuple per op. With
// unique keys every tuple meets one partner at most, so the cost must not
// depend on how many tuples the window holds — the property the key index
// buys — and the benchmark asserts it, along with an allocation-free steady
// state (output payloads come from the arena, one chunk per few thousand).
func BenchmarkSJoin(b *testing.B) {
	for _, window := range []int{100, 600, 5000} {
		for _, dist := range []string{"unique", "hotkey", "zipf"} {
			b.Run(fmt.Sprintf("window=%d/%s", window, dist), func(b *testing.B) {
				jb := newJoinBench(window, dist)
				if got := jb.j.StateSize(); got < 2*window || got > 2*window+2 {
					b.Fatalf("steady state holds %d tuples, want about %d", got, 2*window)
				}
				b.ReportAllocs()
				b.ResetTimer()
				jb.feed(b.N)
				b.StopTimer()
				if jb.emitted == 0 {
					b.Fatal("nothing joined")
				}
			})
		}
	}
	// Best of a few fixed-size runs per side, interleaved, so a noisy
	// neighbour has to hit every one of them to fake a window dependence.
	const tuples, rounds = 100000, 5
	best := map[int]float64{}
	for round := 0; round < rounds; round++ {
		for _, window := range []int{100, 5000} {
			ns, allocs := newJoinBench(window, "unique").measure(tuples)
			if allocs >= 0.01 {
				b.Errorf("window=%d unique: %.4f allocs per tuple in steady state, want 0", window, allocs)
			}
			if old, ok := best[window]; !ok || ns < old {
				best[window] = ns
			}
		}
	}
	if best[5000] > 2*best[100] {
		b.Errorf("unique keys: %.1f ns/tuple at window=5000 vs %.1f at window=100 — per-tuple cost depends on the window size",
			best[5000], best[100])
	}
}
