package scenario

import (
	"path/filepath"
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// nonLinearInput returns the first input stream of d whose walk along
// single-consumer edges does not end at a pure output operator, or "" when
// every input's walk does. That walk is the staged batch plane's chain
// (engine.buildChain): an input that fails it runs per-tuple.
func nonLinearInput(d *diagram.Diagram) string {
	isOutput := make(map[string]bool)
	for _, out := range d.Outputs() {
		isOutput[out.Op] = true
	}
	for _, in := range d.Inputs() {
		op := in.Op
		for {
			edges := d.Downstream(op)
			if len(edges) == 0 && isOutput[op] {
				break
			}
			if len(edges) != 1 || isOutput[op] {
				return in.Stream
			}
			op = edges[0].To
		}
	}
	return ""
}

// TestDeployedDiagramsAreLinear pins the shape assumption behind the staged
// plane building chains only for linear inputs: every diagram a scenario
// deploys — on every replica and on the client proxy — is a linear path
// per input from its SUnion(s) to its SOutput, so no deployed input falls
// back to the per-tuple plane for want of a chain.
func TestDeployedDiagramsAreLinear(t *testing.T) {
	var paths []string
	for _, dir := range []string{"../../scenarios", "../../scenarios/corpus", "../../scenarios/bench"} {
		found, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(found) == 0 {
			t.Fatalf("no specs under %s", dir)
		}
		paths = append(paths, found...)
	}
	for _, path := range paths {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := Build(spec, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, row := range dep.Nodes {
			for _, n := range row {
				if in := nonLinearInput(n.Engine().Diagram()); in != "" {
					t.Errorf("%s: replica %s: input %s does not run a linear path to an output", path, n.ID(), in)
				}
			}
		}
		if in := nonLinearInput(dep.Client.Proxy().Engine().Diagram()); in != "" {
			t.Errorf("%s: client proxy: input %s does not run a linear path to an output", path, in)
		}
	}

	// The check itself must reject a fan-out.
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 1, BucketSize: 100 * runtime.Millisecond, Delay: runtime.Second}))
	b.Add(operator.NewFilter("f", func(tuple.Tuple) bool { return true }))
	b.Add(operator.NewSOutput("out1"))
	b.Add(operator.NewSOutput("out2"))
	b.Connect("su", "f", 0)
	b.Connect("su", "out2", 0)
	b.Connect("f", "out1", 0)
	b.Input("in", "su", 0)
	b.Output("o1", "out1")
	b.Output("o2", "out2")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in := nonLinearInput(d); in != "in" {
		t.Fatalf("fan-out diagram passed the linearity check (got %q)", in)
	}
}
