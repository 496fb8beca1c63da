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
