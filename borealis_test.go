package borealis_test

import (
	"fmt"
	"log"
	"testing"

	"borealis"
)

// TestFacadeQuickstart exercises the high-level deployment API end to end.
func TestFacadeQuickstart(t *testing.T) {
	spec, err := borealis.ParseScenario([]byte(`{
	  "name": "facade-quickstart", "duration_s": 25,
	  "defaults": {"delay_s": 2, "replicas": 2},
	  "sources": [{"name": "s", "count": 3, "rate": 300}],
	  "nodes": [{"name": "n1", "inputs": ["s"]}],
	  "faults": [{"kind": "disconnect", "source": "s2", "at_s": 5, "duration_s": 4}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := borealis.BuildScenario(spec, borealis.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(25 * borealis.Second)
	st := dep.Client.Stats()
	if st.NewTuples == 0 {
		t.Fatal("no output")
	}
	if st.Tentative == 0 || st.Undos == 0 {
		t.Fatalf("failure handling not visible through facade: %+v", st)
	}
}

// TestFacadeCustomDiagram builds a node from the low-level API.
func TestFacadeCustomDiagram(t *testing.T) {
	rt := borealis.NewSimRuntime()
	clk := rt.Clock()
	net := borealis.NewNetOn(clk)
	src := borealis.NewSourceOn(clk, net, borealis.SourceConfig{
		ID: "s", Stream: "in", Rate: 100,
	})
	b := borealis.NewDiagramBuilder()
	b.Add(borealis.NewSUnion("su", borealis.SUnionConfig{
		Ports: 1, BucketSize: 100 * borealis.Millisecond, Delay: borealis.Second,
	}))
	b.Add(borealis.NewFilter("even", func(t borealis.Tuple) bool {
		return t.Field(0)%2 == 0
	}))
	b.Add(borealis.NewSOutput("so"))
	b.Connect("su", "even", 0)
	b.Connect("even", "so", 0)
	b.Input("in", "su", 0)
	b.Output("out", "so")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := borealis.NewNodeOn(clk, net, d, borealis.NodeConfig{
		ID:        "n",
		Upstreams: map[string][]string{"in": {"s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := borealis.NewClientOn(clk, net, borealis.ClientConfig{
		ID: "c", Stream: "out", Upstreams: []string{"n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	cl.Start()
	src.Start()
	rt.RunFor(5 * borealis.Second)
	for _, tp := range cl.StableView() {
		if tp.Field(0)%2 != 0 {
			t.Fatalf("filter leaked odd tuple: %v", tp)
		}
	}
	if len(cl.StableView()) == 0 {
		t.Fatal("no stable output through custom diagram")
	}
	if n.State() != borealis.StateStable {
		t.Fatalf("node state = %v", n.State())
	}
}

// TestFacadeDPCWrap checks the §3 auto-wrapping entry point.
func TestFacadeDPCWrap(t *testing.T) {
	b := borealis.NewDiagramBuilder()
	b.Add(borealis.NewMap("double", func(d []int64) []int64 { return []int64{d[0] * 2} }))
	b.Input("in", "double", 0)
	b.Output("out", "double")
	d, err := b.WrapForDPC(borealis.DPCOptions{
		BucketSize: 100 * borealis.Millisecond,
		Delay:      borealis.Second,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SUnions()) != 1 {
		t.Fatalf("WrapForDPC should insert one input SUnion: %v", d.SUnions())
	}
}

// ExampleBuildScenario demonstrates the quickstart flow for godoc: a
// replicated node over three sources, described as a scenario spec.
func ExampleBuildScenario() {
	spec, err := borealis.ParseScenario([]byte(`{
	  "name": "example", "duration_s": 5,
	  "defaults": {"delay_s": 2, "replicas": 2},
	  "sources": [{"name": "s", "count": 3, "rate": 100}],
	  "nodes": [{"name": "n1", "inputs": ["s"]}]
	}`))
	if err != nil {
		panic(err)
	}
	dep, err := borealis.BuildScenario(spec, borealis.ScenarioOptions{})
	if err != nil {
		panic(err)
	}
	dep.Start()
	dep.RunFor(5 * borealis.Second)
	st := dep.Client.Stats()
	fmt.Println(st.Tentative, st.StableDuplicates)
	// Output: 0 0
}

// runFaultFree builds spec without its fault schedule, runs it for its
// whole length and returns the client's delivered view: the failure-free
// reference of the eventual-consistency audit.
func runFaultFree(spec *borealis.Scenario) []borealis.Tuple {
	clean := *spec
	clean.Faults = nil
	ref, err := borealis.BuildScenario(&clean, borealis.ScenarioOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ref.Start()
	ref.RunFor(int64(clean.DurationS) * borealis.Second)
	return ref.Client.View()
}

// ExampleBuildScenario_quickstart is the former examples/quickstart
// program: a replicated DPC deployment surviving an input failure. Three
// data sources feed a replicated processing node whose output a DPC client
// consumes. One source disconnects for five seconds; the client keeps
// receiving results within the availability bound (tentative ones while
// the failure lasts), and after it heals the node reconciles its state and
// the client receives the corrected, stable stream.
func ExampleBuildScenario_quickstart() {
	spec, err := borealis.ParseScenario([]byte(`{
	  "name": "quickstart", "duration_s": 40,
	  "defaults": {"delay_s": 2, "replicas": 2},
	  "sources": [{"name": "s", "count": 3, "rate": 500}],
	  "nodes": [{"name": "n1", "inputs": ["s"]}],
	  "faults": [{"kind": "disconnect", "source": "s2", "at_s": 10, "duration_s": 5}]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	// delay_s is the availability bound D; each node runs as a replica
	// pair. Source s2 disconnects at t=10s for 5s: it keeps producing and
	// logging, and on reconnect it replays everything subscribers missed.
	dep, err := borealis.BuildScenario(spec, borealis.ScenarioOptions{})
	if err != nil {
		log.Fatal(err)
	}

	dep.Start()
	dep.RunFor(40 * borealis.Second) // virtual time: finishes in milliseconds

	st := dep.Client.Stats()
	fmt.Printf("max processing latency under bound 2s+slack: %v\n", st.MaxLatency < 3*borealis.Second)
	fmt.Printf("tentative tuples while failed: %v\n", st.Tentative > 0)
	fmt.Printf("correction sequences: %d\n", st.Undos)
	fmt.Printf("stable duplicates: %d\n", st.StableDuplicates)

	// Eventual consistency: compare against a failure-free run.
	audit := dep.Client.VerifyEventualConsistency(runFaultFree(spec))
	fmt.Printf("eventually consistent: %v\n", audit.OK)
	// Output:
	// max processing latency under bound 2s+slack: true
	// tentative tuples while failed: true
	// correction sequences: 1
	// stable duplicates: 0
	// eventually consistent: true
}

// ExampleBuildScenario_failover is the former examples/chainfailover
// program: a four-level replicated chain surviving a node crash and a
// network partition at once (§2.2: DPC handles multiple failures
// overlapping in time). At t=10s the level-2 primary crashes; at t=12s a
// partition cuts the level-3 primary from its upstreams for six seconds.
// Downstream consistency managers detect both through keep-alive timeouts
// and missing boundaries, switch to the surviving replicas (Table II), and
// the client keeps receiving results.
func ExampleBuildScenario_failover() {
	spec, err := borealis.ParseScenario([]byte(`{
	  "name": "failover", "duration_s": 60,
	  "defaults": {"delay_s": 2, "replicas": 2},
	  "sources": [{"name": "s", "count": 3, "rate": 500}],
	  "nodes": [
	    {"name": "n1", "inputs": ["s"]},
	    {"name": "n2", "inputs": ["n1"]},
	    {"name": "n3", "inputs": ["n2"]},
	    {"name": "n4", "inputs": ["n3"]}
	  ],
	  "faults": [
	    {"kind": "crash", "node": "n2", "replica": 0, "at_s": 10},
	    {"kind": "partition", "from": "n3/0", "to": "n2", "at_s": 12, "duration_s": 6}
	  ]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	// The level-2 primary ("n2a") crashes for good; the level-3 primary
	// is partitioned from both level-2 replicas.
	dep, err := borealis.BuildScenario(spec, borealis.ScenarioOptions{})
	if err != nil {
		log.Fatal(err)
	}

	dep.Start()
	dep.RunFor(60 * borealis.Second)

	// Which replicas ended up serving, and who switched upstreams?
	for li, row := range dep.Nodes {
		for _, n := range row {
			status := n.State().String()
			if n.Down() {
				status = "CRASHED"
			}
			fmt.Printf("level %d %s: %s switches=%d\n", li+1, n.ID(), status, n.CM().Switches)
		}
	}

	audit := dep.Client.VerifyEventualConsistency(runFaultFree(spec))
	fmt.Printf("eventually consistent: %v\n", audit.OK)
	// Output:
	// level 1 n1a: STABLE switches=0
	// level 1 n1b: STABLE switches=0
	// level 2 n2a: CRASHED switches=0
	// level 2 n2b: STABLE switches=0
	// level 3 n3a: STABLE switches=1
	// level 3 n3b: STABLE switches=1
	// level 4 n4a: STABLE switches=1
	// level 4 n4b: STABLE switches=1
	// eventually consistent: true
}

// ExampleRunScenario runs a curated declarative scenario — a diamond
// topology under two overlapping partitions — and checks its report.
// Scenario files are documented in docs/SCENARIOS.md.
func ExampleRunScenario() {
	spec, err := borealis.LoadScenario("scenarios/diamond-overlapping-partitions.json")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := borealis.RunScenario(spec, borealis.ScenarioOptions{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("availability violations: %d\n", rep.Availability.Violations)
	fmt.Printf("saw tentative data: %v\n", rep.Client.Tentative > 0)
	fmt.Printf("eventually consistent: %v\n", rep.Consistency.OK)
	// Output:
	// availability violations: 0
	// saw tentative data: true
	// eventually consistent: true
}
