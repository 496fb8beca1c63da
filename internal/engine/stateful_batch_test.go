package engine

import (
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// statefulDiagram builds l, r → SUnion → op → then... → SOutput: a staged
// chain whose middle stage is a batch processor that keeps tuples across
// dispatches.
func statefulDiagram(t *testing.T, op operator.Operator, then ...operator.Operator) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 2, BucketSize: 100 * ms, Delay: 2 * sec}))
	prev := "su"
	for _, o := range append([]operator.Operator{op}, then...) {
		b.Add(o)
		b.Connect(prev, o.Name(), 0)
		prev = o.Name()
	}
	b.Add(operator.NewSOutput("out"))
	b.Connect(prev, "out", 0)
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
// flag, not the operators' content). The stateful stage accepts such a
// frame as a batch — yet part of what it emits is TENTATIVE, mixed in the
// same frame with stable results. Neither operator is CleanPreserving, so
// the dispatcher scans the stage's output and splits it at the first
// tentative tuple: SOutput must see the divergence flag rise exactly there,
// passing the stable results before it and labelling those after it
// tentative, as on the per-tuple plane — also when a stage in between
// drops the tentative tuple itself.
func TestEngineStagedPlaneRescansStatefulStages(t *testing.T) {
	cases := []struct {
		name  string
		op    func() operator.Operator
		then  func() operator.Operator // a stage after op, if any
		clean map[string][]tuple.Tuple // the post-failure dispatch, per input
		want  []tuple.Type             // the output types, both planes
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
			want: []tuple.Type{tuple.Tentative, tuple.Tentative},
		},
		{
			name: "join-stable-first",
			op: func() operator.Operator {
				return operator.NewSJoin("j", operator.JoinConfig{Window: sec})
			},
			// Key 2 meets the stable left tuple first: its result leaves
			// stable, and only key 1's, which meets the tentative one,
			// raises the flag. Raising it for the whole frame would label
			// both tentative.
			clean: map[string][]tuple.Tuple{
				"l": {tuple.NewInsertion(120*ms, 2), tuple.NewBoundary(300 * ms)},
				"r": {tuple.NewInsertion(210*ms, 2), tuple.NewInsertion(220*ms, 1), tuple.NewBoundary(300 * ms)},
			},
			want: []tuple.Type{tuple.Insertion, tuple.Tentative},
		},
		{
			name: "join-filtered",
			op: func() operator.Operator {
				return operator.NewSJoin("j", operator.JoinConfig{Window: sec})
			},
			// The filter drops key 1's tentative result, so the SOutput
			// never sees a tentative tuple: only the flag the join's
			// emission raised labels key 2's stable result tentative.
			then: func() operator.Operator {
				return operator.NewFilter("f", func(t tuple.Tuple) bool { return t.Field(0) == 2 })
			},
			clean: map[string][]tuple.Tuple{
				"l": {tuple.NewInsertion(120*ms, 2), tuple.NewBoundary(300 * ms)},
				"r": {tuple.NewInsertion(210*ms, 1), tuple.NewInsertion(220*ms, 2), tuple.NewBoundary(300 * ms)},
			},
			want: []tuple.Type{tuple.Tentative},
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
			want: []tuple.Type{tuple.Tentative, tuple.Tentative},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perTuple bool) []tuple.Tuple {
				sim := runtime.NewVirtual()
				var then []operator.Operator
				if tc.then != nil {
					then = append(then, tc.then())
				}
				e := newPlane(sim, statefulDiagram(t, tc.op(), then...), perTuple)
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
				if !e.Diverged() {
					t.Fatalf("per-tuple %v: the tentative result must leave the node diverged", perTuple)
				}
				return c.data()
			}
			ref, got := run(true), run(false)
			if len(ref) != len(tc.want) {
				t.Fatalf("per-tuple plane: want %d results, got %v", len(tc.want), ref)
			}
			for i, typ := range tc.want {
				if ref[i].Type != typ {
					t.Fatalf("per-tuple plane: result %d is %v, want type %v", i, ref[i], typ)
				}
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
