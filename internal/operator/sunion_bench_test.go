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

// BenchmarkSUnionProcessBatchTied drives the staged plane's SUnion path with
// three synchronized ports: each op delivers one bucket as a batch per
// port, every tuple of every port on the same stime, then the boundaries
// that release it. The released bucket arrives sorted, so emitBucket's
// pre-scan decides every adjacent pair on a tie — by port within the
// bucket, by id within a port — and never sorts. Reports ns per tuple.
func BenchmarkSUnionProcessBatchTied(b *testing.B) {
	const (
		bucket = 100 * runtime.Millisecond
		ports  = 3
		per    = 256 // tuples per port per bucket
	)
	su := NewSUnion("su", SUnionConfig{Ports: ports, BucketSize: bucket})
	emitted := 0
	su.Attach(&Env{
		Emit:     func(tuple.Tuple) {},
		EmitLoan: func(ts []tuple.Tuple) bool { emitted += len(ts); return false },
		Now:      func() int64 { return 0 },
	})
	batches := make([][]tuple.Tuple, ports)
	for p := range batches {
		batches[p] = make([]tuple.Tuple, per+1)
	}
	id := uint64(0)
	op := func(i int) {
		st := int64(i) * bucket
		for p, ts := range batches {
			for k := 0; k < per; k++ {
				id++
				ts[k] = tuple.Tuple{Type: tuple.Insertion, ID: id, STime: st}.WithData(int64(k))
			}
			ts[per] = tuple.NewBoundary(st + bucket)
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
	if emitted != (b.N+1)*ports*per {
		b.Fatalf("emitted %d tuples, want %d", emitted, (b.N+1)*ports*per)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ports*per), "ns/tuple")
}
