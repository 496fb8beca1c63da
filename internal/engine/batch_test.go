package engine

import (
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// chainDiagram builds in → SUnion → Filter → Map → SOutput, the shape the
// staged batch plane optimizes end to end.
func chainDiagram(t *testing.T) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{
		Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec,
	}))
	b.Add(operator.NewFilter("f", func(t tuple.Tuple) bool { return t.Field(0)%2 == 1 }))
	b.Add(operator.NewMap("m", func(d []int64) []int64 { return []int64{d[0] * 10} }))
	b.Add(operator.NewSOutput("out"))
	b.Connect("su", "f", 0)
	b.Connect("f", "m", 0)
	b.Connect("m", "out", 0)
	b.Input("in", "su", 0)
	b.Output("result", "out")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newPlane builds an engine on the staged plane, or on the per-tuple
// reference plane when perTuple is set.
func newPlane(clk runtime.Clock, d *diagram.Diagram, perTuple bool) *Engine {
	e := New(clk, d, Config{})
	if perTuple {
		e.UseReferencePlane()
	}
	return e
}

// runChain feeds the same input through one plane and returns the full
// output sequence.
func runChain(t *testing.T, perTuple bool, batches [][]tuple.Tuple) []tuple.Tuple {
	t.Helper()
	sim := runtime.NewVirtual()
	e := newPlane(sim, chainDiagram(t), perTuple)
	var c capture
	c.bind(sim, e)
	for _, b := range batches {
		e.Ingest("in", b)
		sim.Run()
	}
	return c.tuples
}

func assertPlanesAgree(t *testing.T, batches [][]tuple.Tuple) {
	t.Helper()
	ref := runChain(t, true, batches)
	got := runChain(t, false, batches)
	if len(got) != len(ref) {
		t.Fatalf("plane outputs differ in length: batch %d, per-tuple %d\nbatch %v\nper-tuple %v",
			len(got), len(ref), got, ref)
	}
	for i := range got {
		if got[i].Type != ref[i].Type || got[i].ID != ref[i].ID ||
			got[i].STime != ref[i].STime || !tuple.SameValue(got[i], ref[i]) {
			t.Fatalf("plane outputs differ at %d: batch %+v, per-tuple %+v", i, got[i], ref[i])
		}
	}
}

func TestEngineStagedPlaneMatchesPerTupleCleanFlow(t *testing.T) {
	assertPlanesAgree(t, [][]tuple.Tuple{
		{
			tuple.NewInsertion(10*ms, 1),
			tuple.NewInsertion(20*ms, 2),
			tuple.NewInsertion(30*ms, 3),
			tuple.NewBoundary(100 * ms),
		},
		{
			tuple.NewInsertion(110*ms, 4),
			tuple.NewInsertion(120*ms, 5),
			tuple.NewBoundary(200 * ms),
		},
	})
}

func TestEngineStagedPlaneMatchesPerTupleDirtyFlow(t *testing.T) {
	// Tentative traffic enters the staged plane too; both planes must
	// still agree byte for byte.
	assertPlanesAgree(t, [][]tuple.Tuple{
		{
			tuple.NewInsertion(10*ms, 1),
			tuple.NewBoundary(100 * ms),
		},
		{
			tuple.NewTentative(110*ms, 3),
			tuple.NewInsertion(120*ms, 5),
			tuple.NewBoundary(200 * ms),
		},
		{
			tuple.NewInsertion(210*ms, 7),
			tuple.NewBoundary(300 * ms),
		},
	})
}

func TestEngineStagedPlaneDoesNotMutateIngestedBatch(t *testing.T) {
	// The chain's stages rewrite frames in place (MutatesBatch), but the
	// ingested slice belongs to the caller — the dispatcher must copy it
	// into a pool frame first.
	sim := runtime.NewVirtual()
	e := New(sim, chainDiagram(t), Config{})
	var c capture
	c.bind(sim, e)
	in := []tuple.Tuple{
		tuple.NewInsertion(10*ms, 1),
		tuple.NewInsertion(20*ms, 2),
		tuple.NewBoundary(100 * ms),
	}
	want := make([]tuple.Tuple, len(in))
	copy(want, in)
	e.Ingest("in", in)
	sim.Run()
	if len(c.data()) == 0 {
		t.Fatal("chain produced no output")
	}
	for i := range in {
		if in[i].Type != want[i].Type || in[i].ID != want[i].ID ||
			in[i].STime != want[i].STime || in[i].Src != want[i].Src ||
			!tuple.SameValue(in[i], want[i]) {
			t.Fatalf("ingested batch mutated at %d: %+v, want %+v", i, in[i], want[i])
		}
	}
}

func TestEngineStagedPlaneRepeatedDispatchReusesLoanSafely(t *testing.T) {
	// Several buckets back to back exercise the SUnion loan park/reclaim
	// cycle through the real engine; every bucket's content must survive
	// the reuse intact.
	var batches [][]tuple.Tuple
	for k := int64(0); k < 8; k++ {
		batches = append(batches, []tuple.Tuple{
			tuple.NewInsertion(k*100*ms+10*ms, 2*k+1),
			tuple.NewInsertion(k*100*ms+20*ms, 2*k+2),
			tuple.NewBoundary((k + 1) * 100 * ms),
		})
	}
	assertPlanesAgree(t, batches)
}

// An input bound straight to an SOutput hands it the ingested frame, so a
// tentative tuple reaches it while the divergence flag is clear. Per tuple,
// emitting that tuple raises the flag before the next one is read: the
// stable insertion after it leaves tentative and the boundary is withheld.
// The staged plane must read it the same way, although the engine collects
// the SOutput's emissions and raises the flag only after the call.
func TestEngineStagedPlaneSOutputReadsItsOwnTentative(t *testing.T) {
	run := func(perTuple bool) []tuple.Tuple {
		b := diagram.NewBuilder()
		b.Add(operator.NewSOutput("out"))
		b.Input("in", "out", 0)
		b.Output("result", "out")
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sim := runtime.NewVirtual()
		e := newPlane(sim, d, perTuple)
		var c capture
		c.bind(sim, e)
		e.Ingest("in", []tuple.Tuple{
			tuple.NewInsertion(10*ms, 1),
			tuple.NewTentative(20*ms, 2),
			tuple.NewInsertion(30*ms, 3),
			tuple.NewBoundary(100 * ms),
		})
		sim.Run()
		if !e.Diverged() {
			t.Fatalf("per-tuple %v: a tentative output must raise the divergence flag", perTuple)
		}
		return c.tuples
	}
	ref, got := run(true), run(false)
	want := []tuple.Type{tuple.Insertion, tuple.Tentative, tuple.Tentative}
	if len(ref) != len(want) {
		t.Fatalf("per-tuple plane: %v, want types %v", ref, want)
	}
	for i := range want {
		if ref[i].Type != want[i] {
			t.Fatalf("per-tuple plane: %v, want types %v", ref, want)
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("staged %v, per-tuple %v", got, ref)
	}
	for i := range got {
		if !tuple.Equal(got[i], ref[i]) {
			t.Fatalf("output %d: staged %v, per-tuple %v", i, got[i], ref[i])
		}
	}
}
