package engine

import (
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// statefulDiagram builds l, r → SUnion → op → SOutput: a staged chain whose
// middle stage is a batch processor that keeps tuples across dispatches.
func statefulDiagram(t *testing.T, op operator.Operator) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 2, BucketSize: 100 * ms, Delay: 2 * sec}))
	b.Add(op)
	b.Add(operator.NewSOutput("out"))
	b.Connect("su", op.Name(), 0)
	b.Connect(op.Name(), "out", 0)
	b.Input("l", "su", 0)
	b.Input("r", "su", 1)
	b.Output("result", "out")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A clean frame can meet tentative state: tuples a failure left in a join's
// window or an aggregate's open accumulators, carried across a restore by a
// snapshot taken mid-epoch (the restore clears the engine's divergence
// flag, not the operators' content). Such a frame passes the staged plane's
// entry gate and the stateful stage accepts it as a batch — yet part of
// what it emits is TENTATIVE, followed in the same frame by stable results.
// Neither operator is CleanPreserving, so the dispatcher rescans the stage's
// output and takes the Gate B fallback: SOutput must see the divergence
// flag rise between the two and label the trailing stable results
// tentative, exactly as on the per-tuple plane.
func TestEngineStagedPlaneRescansStatefulStages(t *testing.T) {
	cases := []struct {
		name  string
		op    func() operator.Operator
		clean map[string][]tuple.Tuple // the post-failure dispatch, per input
	}{
		{
			name: "join",
			op: func() operator.Operator {
				return operator.NewSJoin("j", operator.JoinConfig{Window: sec})
			},
			// Key 1 meets the tentative left tuple buffered during the
			// failure, key 2 a stable one from the same frame's l side.
			clean: map[string][]tuple.Tuple{
				"l": {tuple.NewInsertion(120*ms, 2), tuple.NewBoundary(300 * ms)},
				"r": {tuple.NewInsertion(210*ms, 1), tuple.NewInsertion(220*ms, 2), tuple.NewBoundary(300 * ms)},
			},
		},
		{
			name: "aggregate",
			op: func() operator.Operator {
				return operator.NewAggregate("a", operator.AggregateConfig{Size: 400 * ms, Fn: operator.AggCount, GroupField: -1})
			},
			// The window [0, 400 ms) took the tentative tuple; it and the
			// all-stable [400, 800 ms) close in one dispatch.
			clean: map[string][]tuple.Tuple{
				"l": {tuple.NewBoundary(900 * ms)},
				"r": {tuple.NewInsertion(450*ms, 1), tuple.NewInsertion(850*ms, 1), tuple.NewBoundary(900 * ms)},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perTuple bool) []tuple.Tuple {
				sim := runtime.NewVirtual()
				e := newPlane(sim, statefulDiagram(t, tc.op()), perTuple)
				var c capture
				c.bind(sim, e)
				// Failure: only l delivers, and PolicyProcess releases its
				// bucket tentatively into the operator's state.
				e.SetPolicyAll(operator.PolicyProcess)
				e.Ingest("l", []tuple.Tuple{tuple.NewInsertion(10*ms, 1), tuple.NewBoundary(100 * ms)})
				sim.Run()
				if len(c.data()) != 0 {
					t.Fatalf("the failure alone must leave the output untouched: %v", c.tuples)
				}
				// A snapshot with the tentative tuple inside, restored: the
				// flag is down again, the state is not clean, and from here
				// on every frame is all-stable.
				var snap *Snapshot
				e.RequestCheckpoint(func(s *Snapshot) { snap = s })
				e.Restore(snap)
				if e.Diverged() {
					t.Fatal("restore must clear the divergence flag")
				}
				e.SetPolicyAll(operator.PolicyNone)
				e.Ingest("l", tc.clean["l"])
				e.Ingest("r", tc.clean["r"])
				sim.Run()
				return c.data()
			}
			ref, got := run(true), run(false)
			if len(ref) != 2 || ref[0].Type != tuple.Tentative || ref[1].Type != tuple.Tentative {
				t.Fatalf("per-tuple plane: want a tentative result then a stable one relabelled tentative, got %v", ref)
			}
			if len(got) != len(ref) {
				t.Fatalf("plane outputs differ in length: batch %v, per-tuple %v", got, ref)
			}
			for i := range got {
				if got[i].Type != ref[i].Type || got[i].ID != ref[i].ID ||
					got[i].STime != ref[i].STime || !tuple.SameValue(got[i], ref[i]) {
					t.Fatalf("plane outputs differ at %d: batch %+v, per-tuple %+v", i, got[i], ref[i])
				}
			}
		})
	}
}
