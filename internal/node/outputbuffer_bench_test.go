package node

import (
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// BenchmarkOutputBuffer times one 64-tuple PublishBatch per op on a buffer
// with no subscriber (the log alone, no message arrays):
//
//   - acked: every op is acknowledged, so the log stays a few segments
//     long and recycles them; the steady state must allocate nothing;
//   - unacked: nothing is acknowledged and the log grows (reset every 2^18
//     tuples to bound memory), paying for fresh segments;
//   - undo: every op publishes tentative tuples and revokes them with an
//     anchored UNDO, truncating back to the stable prefix.
func BenchmarkOutputBuffer(b *testing.B) {
	const batch = 64
	payload := []int64{1}
	frame := func(typ tuple.Type, first uint64) []tuple.Tuple {
		ts := make([]tuple.Tuple, batch)
		for i := range ts {
			ts[i] = tuple.Tuple{Type: typ, ID: first + uint64(i), STime: int64(first) + int64(i)}.WithData(payload...)
		}
		return ts
	}
	newOB := func() *OutputBuffer {
		sim := runtime.NewVirtual()
		return NewOutputBuffer(sim, netsim.New(sim), "up", "s", BufferUnbounded, 0, []string{"d1"})
	}

	b.Run("acked", func(b *testing.B) {
		ob := newOB()
		ts := frame(tuple.Insertion, 1)
		next := uint64(1)
		op := func() {
			for i := range ts {
				ts[i].ID = next
				next++
			}
			ob.PublishBatch(ts)
			// Keep the last three segments' worth: the ack cut rarely
			// lands on a segment boundary.
			if next > 3*obSegSize {
				ob.Ack("d1", next-3*obSegSize)
			}
		}
		for i := 0; i < 8*obSegSize/batch; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		if a := testing.AllocsPerRun(4*obSegSize/batch, op); a != 0 {
			b.Fatalf("acknowledged steady state allocates %.2f times per op, want 0", a)
		}
	})

	b.Run("unacked", func(b *testing.B) {
		ob := newOB()
		ts := frame(tuple.Insertion, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ob.Len() >= 1<<18 {
				ob.Reset()
			}
			ob.PublishBatch(ts)
		}
	})

	b.Run("undo", func(b *testing.B) {
		ob := newOB()
		ob.PublishBatch(frame(tuple.Insertion, 1))
		ts := frame(tuple.Tentative, batch+1)
		undo := tuple.NewUndo(batch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ob.PublishBatch(ts)
			ob.Publish(undo)
		}
	})
}
