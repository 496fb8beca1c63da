package deploy

import (
	"fmt"
	"strings"
	"testing"

	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

func diamondSpec() TopologySpec {
	// The two branches transform differently so the merged stream holds
	// no legitimately identical tuples (the client's duplicate heuristic
	// keys on stime + payload).
	evens := func() []operator.Operator {
		return []operator.Operator{operator.NewFilter("evens", func(t tuple.Tuple) bool {
			return t.Field(0)%2 == 0
		})}
	}
	triple := func() []operator.Operator {
		return []operator.Operator{operator.NewMap("triple", func(d []int64) []int64 {
			out := append([]int64(nil), d...)
			out[0] *= 3
			return out
		})}
	}
	return TopologySpec{
		Sources: []TopologySource{{ID: "src", Stream: "s", Rate: 200}},
		Groups: []NodeGroup{
			{Name: "a", Output: "ta", Inputs: []string{"s"}, Replicas: 2, Delay: runtime.Second},
			{Name: "b", Output: "tb", Inputs: []string{"ta"}, Replicas: 2, Delay: runtime.Second, Operators: evens},
			{Name: "c", Output: "tc", Inputs: []string{"ta"}, Replicas: 2, Delay: runtime.Second, Operators: triple},
			{Name: "d", Output: "td", Inputs: []string{"tb", "tc"}, Replicas: 2, Delay: runtime.Second},
		},
	}
}

// TestTopologyDiamond runs a diamond (fan-out + fan-in) deployment — a
// shape neither a chain nor the SUnion tree has — through a partition and
// checks output and recovery.
func TestTopologyDiamond(t *testing.T) {
	dep, err := BuildTopology(diamondSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dep.Nodes); got != 4 {
		t.Fatalf("group rows = %d, want 4", got)
	}
	if dep.Group("d") == nil || len(dep.Group("d")) != 2 {
		t.Fatalf("Group(d) = %v", dep.Group("d"))
	}
	if dep.SourceByID("src") == nil {
		t.Fatal("SourceByID(src) = nil")
	}
	// Cut branch b from its upstream for a while.
	for _, pair := range [][2]string{{"ba", "aa"}, {"ba", "ab"}, {"bb", "aa"}, {"bb", "ab"}} {
		dep.RT.At(5*runtime.Second, func() { dep.Net.Partition(pair[0], pair[1]) })
		dep.RT.At(8*runtime.Second, func() { dep.Net.Heal(pair[0], pair[1]) })
	}
	dep.Start()
	dep.RunFor(20 * runtime.Second)
	st := dep.Client.Stats()
	if st.NewTuples == 0 {
		t.Fatal("no output through the diamond")
	}
	if st.StableDuplicates != 0 {
		t.Fatalf("stable duplicates: %d", st.StableDuplicates)
	}
	if st.Tentative == 0 {
		t.Fatal("partition of every b↔a link should force tentative output")
	}
}

// TestTopologyValidation exercises the builder's error paths.
func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*TopologySpec)
		wantErr string
	}{
		{"cycle", func(s *TopologySpec) {
			s.Groups[0].Inputs = []string{"s", "td"}
		}, "cycle"},
		{"unknown stream", func(s *TopologySpec) {
			s.Groups[3].Inputs = []string{"tb", "ghost"}
		}, `unknown stream "ghost"`},
		{"duplicate group", func(s *TopologySpec) {
			s.Groups[1].Name = "a"
		}, "duplicate group"},
		{"duplicate stream", func(s *TopologySpec) {
			s.Groups[2].Output = "tb"
		}, "produced twice"},
		{"bad rate", func(s *TopologySpec) {
			s.Sources[0].Rate = 0
		}, "non-positive rate"},
		{"no inputs", func(s *TopologySpec) {
			s.Groups[0].Inputs = nil
		}, "no inputs"},
		{"client stream", func(s *TopologySpec) {
			s.Client.Stream = "s" // a source stream, not a group output
		}, "not a group output"},
		{"cascade arity", func(s *TopologySpec) {
			s.Groups[0].Cascade = true
		}, "cascade needs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := diamondSpec()
			tc.mutate(&spec)
			_, err := BuildTopology(spec)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %q", tc.wantErr, err)
			}
		})
	}
}

// TestCascadeMatchesSUnionTree: a Cascade group builds the Fig. 10 SUnion
// tree (three two-port SUnions) on a single node.
func TestCascadeMatchesSUnionTree(t *testing.T) {
	spec := TopologySpec{Groups: []NodeGroup{{Name: "n1", Cascade: true, Delay: 2 * runtime.Second}}}
	for i := 1; i <= 4; i++ {
		id := fmt.Sprintf("s%d", i)
		spec.Sources = append(spec.Sources, TopologySource{ID: id, Rate: 50})
		spec.Groups[0].Inputs = append(spec.Groups[0].Inputs, id)
	}
	dep, err := BuildTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := dep.Nodes[0][0].Engine().Diagram()
	sus := d.SUnions()
	if len(sus) != 3 {
		t.Fatalf("SUnions = %v, want su1 su2 su3", sus)
	}
	for i, want := range []string{"su1", "su2", "su3"} {
		if sus[i] != want {
			t.Fatalf("SUnions = %v, want su1 su2 su3", sus)
		}
	}
	if _, ok := d.Op("su1").(*operator.SUnion); !ok {
		t.Fatal("su1 is not an SUnion")
	}
}
