package operator

import (
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// BenchmarkSUnionPump drives the steady-state serialization path: data
// tuples arriving on two ports followed by the boundaries that stabilize
// and flush each bucket. This is the per-tuple hot loop of every node.
func BenchmarkSUnionPump(b *testing.B) {
	const bucket = 100 * runtime.Millisecond
	su := NewSUnion("su", SUnionConfig{Ports: 2, BucketSize: bucket})
	sink := 0
	env := &Env{
		Emit: func(t tuple.Tuple) { sink++ },
		Now:  func() int64 { return 0 },
	}
	su.Attach(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := int64(i) * bucket
		su.Process(0, tuple.NewInsertion(st, 1))
		su.Process(0, tuple.NewInsertion(st+1, 2))
		su.Process(1, tuple.NewInsertion(st+2, 3))
		su.Process(1, tuple.NewInsertion(st+3, 4))
		su.Process(0, tuple.NewBoundary(st+bucket))
		su.Process(1, tuple.NewBoundary(st+bucket))
	}
	if sink == 0 {
		b.Fatal("nothing emitted")
	}
}

// BenchmarkSUnionPumpTentative measures the failure-mode path: PolicyProcess
// with a flush timer re-armed per bucket, the dominant load during the
// paper's long-failure experiments.
func BenchmarkSUnionPumpTentative(b *testing.B) {
	const bucket = 100 * runtime.Millisecond
	sim := runtime.NewVirtual()
	su := NewSUnion("su", SUnionConfig{
		Ports: 1, BucketSize: bucket,
		Delay: runtime.Millisecond, TentativeWait: 50 * runtime.Millisecond,
	})
	sink := 0
	env := &Env{
		Emit:  func(t tuple.Tuple) { sink++ },
		Now:   sim.Now,
		After: sim.After,
	}
	su.Attach(env)
	su.SetPolicy(PolicyProcess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sim.Now()
		su.Process(0, tuple.NewInsertion(st, 1))
		su.Process(0, tuple.NewInsertion(st+1, 2))
		sim.RunFor(bucket)
	}
	if sink == 0 {
		b.Fatal("nothing emitted")
	}
}

// BenchmarkSUnionProcessBatchTied drives the staged plane's SUnion path:
// each op delivers one bucket as a batch per port, then the boundaries that
// release it. Reports ns per tuple.
//
//   - tied: three synchronized ports, every tuple of every port on the same
//     stime. The released bucket arrives sorted, so emitBucket's pre-scan
//     decides every adjacent pair on a tie — by port within the bucket, by
//     id within a port — and never merges.
//   - interleaved: two ports whose tuples alternate in ten runs across the
//     bucket's stime range. Each port arrives in order but the bucket does
//     not, so every bucket takes the split and the merge of its port runs.
func BenchmarkSUnionProcessBatchTied(b *testing.B) {
	const bucket = 100 * runtime.Millisecond
	b.Run("tied", func(b *testing.B) {
		const ports, per = 3, 256 // per: tuples per port per bucket
		var id uint64
		benchSUnionBuckets(b, ports, bucket, ports*per, func(batches [][]tuple.Tuple, start int64) {
			for p := range batches {
				ts := batches[p][:0]
				for k := 0; k < per; k++ {
					id++
					ts = append(ts, tuple.Tuple{Type: tuple.Insertion, ID: id, STime: start}.WithData(int64(k)))
				}
				batches[p] = append(ts, tuple.NewBoundary(start+bucket))
			}
		})
	})
	b.Run("interleaved", func(b *testing.B) {
		const runs, perRun = 10, 77 // 770 tuples per bucket
		var id uint64
		benchSUnionBuckets(b, 2, bucket, runs*perRun, func(batches [][]tuple.Tuple, start int64) {
			interleavedBucket(batches, runs, perRun, start, bucket, &id)
		})
	})
}

// benchSUnionBuckets times fill-and-release of one bucket per op; fill
// writes each port's batch for the bucket starting at start.
func benchSUnionBuckets(b *testing.B, ports int, bucket int64, perBucket int, fill func(batches [][]tuple.Tuple, start int64)) {
	su := NewSUnion("su", SUnionConfig{Ports: ports, BucketSize: bucket})
	emitted := 0
	su.Attach(&Env{
		Emit:     func(tuple.Tuple) {},
		EmitLoan: func(ts []tuple.Tuple) bool { emitted += len(ts); return false },
		Now:      func() int64 { return 0 },
	})
	batches := make([][]tuple.Tuple, ports)
	for p := range batches {
		batches[p] = make([]tuple.Tuple, 0, perBucket+1)
	}
	op := func(i int) {
		fill(batches, int64(i)*bucket)
		for p, ts := range batches {
			if !su.ProcessBatch(p, ts) {
				b.Fatal("ProcessBatch declined under PolicyNone")
			}
		}
	}
	op(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		op(i)
	}
	b.StopTimer()
	if emitted != (b.N+1)*perBucket {
		b.Fatalf("emitted %d tuples, want %d", emitted, (b.N+1)*perBucket)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBucket), "ns/tuple")
}

// interleavedBucket delivers one bucket on two ports as runs alternating
// ports — port 0 holds runs 0, 2, 4, … of the bucket's stime range, port 1
// the others — each port in order, so the bucket arrives out of order and
// emitBucket takes the merge. The batches end with the boundary that
// releases the bucket.
func interleavedBucket(batches [][]tuple.Tuple, runs, perRun int, start, bucket int64, id *uint64) {
	step := bucket / int64(runs*perRun)
	for p := range batches {
		ts := batches[p][:0]
		for run := p; run < runs; run += len(batches) {
			for k := 0; k < perRun; k++ {
				*id++
				ts = append(ts, tuple.Tuple{Type: tuple.Insertion, ID: *id, STime: start + int64(run*perRun+k)*step}.WithData(int64(k)))
			}
		}
		batches[p] = append(ts, tuple.NewBoundary(start+bucket))
	}
}
