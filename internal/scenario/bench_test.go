// Benchmarks for the run-family executor: per-cell setup (spec copy,
// compile) and the RunMany fan-out. The Clone/CloneJSON pair pins the
// sweep-copy rewrite; BenchmarkRunMany doubles as the CI smoke that the
// parallel executor keeps working (-bench RunMany -benchtime 1x).
package scenario

import (
	"encoding/json"
	"os"
	goruntime "runtime"
	"testing"

	rtpkg "borealis/internal/runtime"
)

// benchSpec loads the widest curated scenario — the most expensive spec
// to copy and compile.
func benchSpec(b *testing.B) *Spec {
	b.Helper()
	spec, err := Load("../../scenarios/wide-fanout-join.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.VerifyConsistency = false
	return spec
}

// BenchmarkSpecClone measures the handwritten deep copy every sweep/grid
// cell pays.
func BenchmarkSpecClone(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := spec.Clone()
		if c.Name != spec.Name {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkSpecCloneJSON is the replaced implementation — the JSON
// marshal/unmarshal round trip SweepSpec.apply used before — kept as the
// baseline the Clone numbers are compared against.
func BenchmarkSpecCloneJSON(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		var c Spec
		if err := json.Unmarshal(raw, &c); err != nil {
			b.Fatal(err)
		}
		if c.Name != spec.Name {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkCompile measures per-cell setup beyond the copy: validation,
// name-index build, topology assembly, workload/fault installation and
// probe hookup — everything a grid cell pays before its first event.
func BenchmarkCompile(b *testing.B) {
	spec := benchSpec(b)
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := compile(rtpkg.NewVirtual(), nil, nil, spec, Options{Quick: true}, true)
		if err != nil {
			b.Fatal(err)
		}
		if rt.dep == nil {
			b.Fatal("no deployment")
		}
	}
}

// BenchmarkRunMany fans a small homogeneous run family across the worker
// pool. One iteration runs GOMAXPROCS×2 short scenarios — enough to
// exercise queue hand-off and result routing without dominating CI.
func BenchmarkRunMany(b *testing.B) {
	base := &Spec{
		Name:      "bench",
		Seed:      1,
		DurationS: 2,
		Sources:   []SourceSpec{{Name: "s", Rate: 200}},
		Nodes:     []NodeSpec{{Name: "n1", Inputs: []string{"s"}}},
		Faults:    []FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: 1, DurationS: 0.5}},
	}
	specs := make([]*Spec, goruntime.GOMAXPROCS(0)*2)
	for i := range specs {
		specs[i] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := RunMany(specs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if reports[0].Client.NewTuples == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkRunManySerial is the Parallelism-1 baseline of the same
// family: the speedup ratio of the two is the executor's scaling on the
// benchmarking machine.
func BenchmarkRunManySerial(b *testing.B) {
	base := &Spec{
		Name:      "bench",
		Seed:      1,
		DurationS: 2,
		Sources:   []SourceSpec{{Name: "s", Rate: 200}},
		Nodes:     []NodeSpec{{Name: "n1", Inputs: []string{"s"}}},
		Faults:    []FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: 1, DurationS: 0.5}},
	}
	specs := make([]*Spec, goruntime.GOMAXPROCS(0)*2)
	for i := range specs {
		specs[i] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := RunMany(specs, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if reports[0].Client.NewTuples == 0 {
			b.Fatal("empty run")
		}
	}
}

// planeSpec loads the fault-free chain used by the data-plane throughput
// benchmarks: the chain-throughput harness topology with its fault schedule
// stripped, so the measurement is a pure steady-state pipeline.
func planeSpec(b *testing.B) *Spec {
	b.Helper()
	spec, err := Load("../../scenarios/bench/chain-throughput.json")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Clone()
	spec.Faults = nil
	spec.VerifyConsistency = false
	return spec
}

// benchPlane runs the fault-free chain on one data plane and reports
// engine-processed tuples per wall second. The quick (10s) variant keeps
// CI cheap; set BENCH_FULL=1 for the spec's full duration when profiling.
func benchPlane(b *testing.B, perTuple bool) {
	spec := planeSpec(b)
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	quick := os.Getenv("BENCH_FULL") == ""
	b.ReportAllocs()
	b.ResetTimer()
	var processed uint64
	for i := 0; i < b.N; i++ {
		rt, err := compile(rtpkg.NewVirtual(), nil, nil, spec, Options{Quick: quick, PerTuple: perTuple, NoAudit: true}, true)
		if err != nil {
			b.Fatal(err)
		}
		rt.dep.Start()
		rt.dep.RunFor(rt.durationUS)
		processed = 0
		for _, group := range rt.dep.Nodes {
			for _, n := range group {
				processed += n.Engine().Processed
			}
		}
	}
	b.ReportMetric(float64(processed)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkPlaneBatch measures the staged batch data plane on the
// fault-free chain; compare with BenchmarkPlanePerTuple — the pair is the
// plane differential (bench/run.sh measures the batch plane end to end).
func BenchmarkPlaneBatch(b *testing.B) { benchPlane(b, false) }

// BenchmarkPlanePerTuple measures the per-tuple reference plane on the
// same workload.
func BenchmarkPlanePerTuple(b *testing.B) { benchPlane(b, true) }
