package node

import (
	goruntime "runtime"
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
//     anchored UNDO, truncating back to the stable prefix;
//
// and one acknowledged 64-tuple instant per op, flushed to one subscriber
// on a stub fabric that copies the message during Send, as every fabric
// does, so the next instant refills the flush array (B/op is the boxed
// DataMsg):
//
//   - flush/single-batch: the instant is one PublishBatch;
//   - flush/multi-batch: four PublishBatch calls of 16 tuples;
//   - flush/per-tuple: 64 one-tuple frames.
//
// slide/one-tuple-instants times one one-tuple frame and its flush on a full
// BufferSlide buffer of 4 096 one-tuple instants on that fabric: each op
// drops the oldest tuple and appends one, recycling a segment every 1 024.
//
// retained/* report the heap an unacknowledged buffer on that fabric keeps
// per tuple (retained_B/tuple) after 2^16 tuples in instants of one tuple,
// of 64 tuples, or of alternately 8 tuples ending in a REC_DONE and 8 data
// tuples.
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
			publishOne(ob, undo)
		}
	})

	for _, c := range []struct {
		name string
		pub  func(ob *OutputBuffer, ts []tuple.Tuple)
	}{
		{"single-batch", func(ob *OutputBuffer, ts []tuple.Tuple) { ob.PublishBatch(ts) }},
		{"multi-batch", func(ob *OutputBuffer, ts []tuple.Tuple) {
			for i := 0; i < len(ts); i += batch / 4 {
				ob.PublishBatch(ts[i : i+batch/4])
			}
		}},
		{"per-tuple", func(ob *OutputBuffer, ts []tuple.Tuple) {
			for i := range ts {
				publishOne(ob, ts[i])
			}
		}},
	} {
		b.Run("flush/"+c.name, func(b *testing.B) {
			sim := runtime.NewVirtual()
			f := &copyingFabric{}
			ob := NewOutputBuffer(sim, f, "up", "s", BufferUnbounded, 0, []string{"d1"})
			ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
			ts := frame(tuple.Insertion, 1)
			next := uint64(1)
			op := func() {
				for i := range ts {
					ts[i].ID = next
					next++
				}
				c.pub(ob, ts)
				sim.Run()
				ob.Ack("d1", next-1)
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
			if len(f.got) != batch || f.got[0].ID != next-batch {
				b.Fatalf("the subscriber got %d tuples, want the last %d", len(f.got), batch)
			}
		})
	}

	newSubscribed := func(mode BufferMode, capTuples int) (*OutputBuffer, *runtime.VirtualClock) {
		sim := runtime.NewVirtual()
		ob := NewOutputBuffer(sim, &copyingFabric{}, "up", "s", mode, capTuples, []string{"d1"})
		ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
		return ob, sim
	}

	b.Run("slide/one-tuple-instants", func(b *testing.B) {
		ob, sim := newSubscribed(BufferSlide, 4*obSegSize)
		next := uint64(1)
		op := func() {
			publishOne(ob, tuple.Tuple{Type: tuple.Insertion, ID: next, STime: int64(next)}.WithData(payload...))
			next++
			sim.Run()
		}
		for i := 0; i < 3*4*obSegSize; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})

	for _, c := range []struct {
		name string
		pub  func(ob *OutputBuffer, sim *runtime.VirtualClock, ts []tuple.Tuple)
	}{
		{"one-tuple", func(ob *OutputBuffer, sim *runtime.VirtualClock, ts []tuple.Tuple) {
			for i := range ts {
				publishOne(ob, ts[i])
				sim.Run()
			}
		}},
		{"64-tuple", func(ob *OutputBuffer, sim *runtime.VirtualClock, ts []tuple.Tuple) {
			ob.PublishBatch(ts)
			sim.Run()
		}},
		{"rec_done-then-data", func(ob *OutputBuffer, sim *runtime.VirtualClock, ts []tuple.Tuple) {
			for k := 0; k < len(ts); k += 8 {
				ob.PublishBatch(ts[k : k+8])
				if k%16 == 0 {
					publishOne(ob, tuple.NewRecDone(ts[k].STime))
				}
				sim.Run()
			}
		}},
	} {
		b.Run("retained/"+c.name, func(b *testing.B) {
			var perTuple float64
			for i := 0; i < b.N; i++ {
				var before, after goruntime.MemStats
				goruntime.GC()
				goruntime.ReadMemStats(&before)
				ob, sim := newSubscribed(BufferUnbounded, 0)
				for k := 0; k < 1<<16; k += batch {
					c.pub(ob, sim, frame(tuple.Insertion, uint64(k+1)))
				}
				goruntime.GC()
				goruntime.ReadMemStats(&after)
				perTuple = float64(after.HeapAlloc-before.HeapAlloc) / float64(ob.Len())
				goruntime.KeepAlive(ob)
			}
			b.ReportMetric(perTuple, "retained_B/tuple")
		})
	}
}
