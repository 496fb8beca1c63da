//go:build loanpoison

package engine

import (
	"strings"
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// TestRedoPieceReturnedEarlyPanics: a poisoning build overwrites a returned
// segment with sentinels, so a replay piece given back to its pool while
// its batch still waits for dispatch makes the dispatch panic instead of
// reading whatever the next log appends there.
func TestRedoPieceReturnedEarlyPanics(t *testing.T) {
	for _, early := range []bool{false, true} {
		sim := runtime.NewVirtual()
		e := New(sim, mergeDiagram(t, 2*sec), Config{Capacity: 100})
		var pool tuple.LoanPool
		chunks := segmentBatch(&pool,
			[]tuple.Tuple{tuple.NewInsertion(10*ms, 1)},
			[]tuple.Tuple{tuple.NewInsertion(20*ms, 2), tuple.NewBoundary(100 * ms)})
		e.IngestChunks("in1", chunks, &pool)
		if early {
			pool.Return(chunks[1])
		}
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg = r.(string)
				}
			}()
			sim.Run()
		}()
		if early != strings.Contains(msg, "returned to its LoanPool") {
			t.Fatalf("piece returned early %v: panic %q", early, msg)
		}
	}
}
