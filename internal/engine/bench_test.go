package engine

import (
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// benchDiagram builds the canonical node fragment: SUnion → Filter → Map →
// SOutput, the shape every experiment's processing nodes use.
func benchDiagram(b *testing.B) *diagram.Diagram {
	b.Helper()
	bd := diagram.NewBuilder()
	bd.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 1, BucketSize: 100 * runtime.Millisecond}))
	bd.Add(operator.NewFilter("f", func(t tuple.Tuple) bool { return t.Field(0)%2 == 0 }))
	bd.Add(operator.NewMap("m", func(d []int64) []int64 { return d }))
	bd.Add(operator.NewSOutput("out"))
	bd.Connect("su", "f", 0)
	bd.Connect("f", "m", 0)
	bd.Connect("m", "out", 0)
	bd.Input("in", "su", 0)
	bd.Output("result", "out")
	d, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkEngineDispatch pushes batches through Ingest → service queue →
// dispatch → diagram, the end-to-end per-tuple data plane of one node.
func BenchmarkEngineDispatch(b *testing.B) {
	sim := runtime.NewVirtual()
	e := New(sim, benchDiagram(b), Config{})
	outs := 0
	e.OnOutput(func(string, tuple.Tuple) { outs++ })
	const bucket = 100 * runtime.Millisecond
	batch := make([]tuple.Tuple, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := int64(i) * bucket
		for j := range batch {
			batch[j] = tuple.NewInsertion(st+int64(j), int64(j))
		}
		e.Ingest("in", batch)
		e.Ingest("in", []tuple.Tuple{tuple.NewBoundary(st + bucket)})
		sim.Run()
	}
	if outs == 0 {
		b.Fatal("nothing emitted")
	}
}

// BenchmarkEngineDispatchCapacity adds the service-queue timer path
// (Capacity > 0), which every experiment node exercises.
func BenchmarkEngineDispatchCapacity(b *testing.B) {
	sim := runtime.NewVirtual()
	e := New(sim, benchDiagram(b), Config{Capacity: 1e9})
	outs := 0
	e.OnOutput(func(string, tuple.Tuple) { outs++ })
	const bucket = 100 * runtime.Millisecond
	batch := make([]tuple.Tuple, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := int64(i) * bucket
		for j := range batch {
			batch[j] = tuple.NewInsertion(st+int64(j), int64(j))
		}
		e.Ingest("in", batch)
		e.Ingest("in", []tuple.Tuple{tuple.NewBoundary(st + bucket)})
		sim.Run()
	}
	if outs == 0 {
		b.Fatal("nothing emitted")
	}
}
