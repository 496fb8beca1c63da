package deploy_test

import (
	"fmt"
	"testing"

	"borealis/internal/deploy"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

// chain is the tests' base deployment: depth levels n1…nN of replica
// pairs, level 1 fed by three sources s1–s3 at 300 tuples/s in total, with
// D = 2 s per node, run for durationS seconds.
func chain(depth int, durationS float64) *scenario.Spec {
	s := &scenario.Spec{
		Name:      "chain",
		DurationS: durationS,
		Defaults:  scenario.Defaults{DelayS: 2, Replicas: 2},
		Sources:   []scenario.SourceSpec{{Name: "s", Count: 3, Rate: 300}},
	}
	input := "s"
	for level := 1; level <= depth; level++ {
		name := fmt.Sprintf("n%d", level)
		s.Nodes = append(s.Nodes, scenario.NodeSpec{Name: name, Inputs: []string{input}})
		input = name
	}
	return s
}

// build compiles s, faults installed; call Start to begin.
func build(t *testing.T, s *scenario.Spec) *deploy.Deployment {
	t.Helper()
	dep, err := scenario.Build(s, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// runClean runs s failure-free for its whole length and returns the
// client's delivered view as the reference stream for the consistency
// audit.
func runClean(t *testing.T, s *scenario.Spec) []tuple.Tuple {
	t.Helper()
	view, err := scenario.ClusterReference(s, false)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// disconnect cuts source src off at atS for durS seconds; it reconnects
// with full replay.
func disconnect(src string, atS, durS float64) scenario.FaultSpec {
	return scenario.FaultSpec{Kind: "disconnect", Source: src, AtS: atS, DurationS: durS}
}

// stall stops source src's boundary tuples at atS for durS seconds while
// its data keeps flowing.
func stall(src string, atS, durS float64) scenario.FaultSpec {
	return scenario.FaultSpec{Kind: "stall_boundaries", Source: src, AtS: atS, DurationS: durS}
}

func TestStableFlowEndToEnd(t *testing.T) {
	dep := build(t, chain(1, 5))
	dep.Start()
	dep.RunFor(5 * sec)
	st := dep.Client.Stats()
	if st.NewTuples == 0 {
		t.Fatal("client received nothing")
	}
	if st.Tentative != 0 {
		t.Fatalf("stable run produced %d tentative tuples", st.Tentative)
	}
	if st.StableDuplicates != 0 {
		t.Fatalf("stable duplicates: %d", st.StableDuplicates)
	}
	// Normal processing latency: bucket + boundary + proxy ≈ ≤ 600 ms.
	if st.MaxLatency > 600*ms {
		t.Fatalf("normal latency too high: %d ms", st.MaxLatency/ms)
	}
	for _, row := range dep.Nodes {
		for _, n := range row {
			if n.State() != node.StateStable {
				t.Fatalf("node %s not stable: %v", n.ID(), n.State())
			}
		}
	}
}

func TestBothReplicasProduceIdenticalStableStreams(t *testing.T) {
	dep := build(t, chain(1, 5))
	var a, b []tuple.Tuple
	dep.Nodes[0][0].OnDeliver(func(_ string, tp tuple.Tuple) {
		if tp.IsData() {
			a = append(a, tp)
		}
	})
	dep.Nodes[0][1].OnDeliver(func(_ string, tp tuple.Tuple) {
		if tp.IsData() {
			b = append(b, tp)
		}
	})
	dep.Start()
	dep.RunFor(5 * sec)
	if len(a) == 0 {
		t.Fatal("no output")
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !tuple.SameValue(a[i], b[i]) {
			t.Fatalf("replicas diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if diff := len(a) - len(b); diff > 50 && diff < -50 {
		t.Fatalf("replica output lengths far apart: %d vs %d", len(a), len(b))
	}
}

func TestMaskedFailureProducesNoTentative(t *testing.T) {
	// Failure (1s) shorter than the 0.9·D = 1.8s suspension: fully
	// masked (§6.1).
	s := chain(1, 15)
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 1)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(15 * sec)
	st := dep.Client.Stats()
	if st.Tentative != 0 {
		t.Fatalf("masked failure produced %d tentative tuples", st.Tentative)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	if dep.Nodes[0][0].Reconciliations != 0 {
		t.Fatal("masked failure must not reconcile")
	}
}

func TestFailureProducesTentativeThenCorrects(t *testing.T) {
	s := chain(1, 25)
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 6)} // 6s failure > 1.8s suspension
	dep := build(t, s)
	dep.Start()
	dep.RunFor(25 * sec)
	st := dep.Client.Stats()
	if st.Tentative == 0 {
		t.Fatal("long failure must produce tentative tuples")
	}
	if st.Undos == 0 {
		t.Fatal("corrections must be preceded by an undo")
	}
	if st.RecDones == 0 {
		t.Fatal("rec_done must reach the client")
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	if audit.Compared == 0 {
		t.Fatal("audit compared nothing")
	}
	// Both replicas must have reconciled, staggered one at a time.
	r0 := dep.Nodes[0][0].Reconciliations
	r1 := dep.Nodes[0][1].Reconciliations
	if r0 != 1 || r1 != 1 {
		t.Fatalf("want one reconciliation per replica, got %d and %d", r0, r1)
	}
	for _, n := range dep.Nodes[0] {
		if n.State() != node.StateStable {
			t.Fatalf("node %s not stable after recovery: %v", n.ID(), n.State())
		}
	}
}

func TestAvailabilityBoundHeldDuringFailure(t *testing.T) {
	// Process & Process with D=2s: Procnew stays ≈ 0.9·D + overheads
	// regardless of failure duration (Table III).
	s := chain(1, 25)
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 8)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(4 * sec)
	dep.Client.ResetLatency()
	dep.RunFor(21 * sec)
	st := dep.Client.Stats()
	// Bound: 0.9·2s suspension + client/serialization overheads < 2.6s.
	if st.MaxLatency > 2600*ms {
		t.Fatalf("availability bound broken: Procnew = %d ms", st.MaxLatency/ms)
	}
	if st.MaxLatency < 1800*ms {
		t.Fatalf("suspension shorter than 0.9·D? Procnew = %d ms", st.MaxLatency/ms)
	}
}

func TestSuspendVariantTradesLatencyForConsistency(t *testing.T) {
	// Suspend during failure AND stabilization (no stagger): zero
	// tentative tuples, but latency grows with the failure duration.
	s := chain(1, 20)
	s.Defaults.FailurePolicy = "suspend"
	s.Defaults.Stabilization = "suspend"
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 4)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(20 * sec)
	st := dep.Client.Stats()
	if st.Tentative != 0 {
		t.Fatalf("suspend variant produced %d tentative tuples", st.Tentative)
	}
	if st.MaxLatency < 3900*ms {
		t.Fatalf("suspend latency should reflect the 4s failure, got %d ms", st.MaxLatency/ms)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestCrashFailoverToReplica(t *testing.T) {
	s := chain(1, 15)
	// Crash n1a, the client's first upstream, for good.
	s.Faults = []scenario.FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: 5}}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(4 * sec)
	dep.Client.ResetLatency()
	dep.RunFor(11 * sec)
	st := dep.Client.Stats()
	// The replica is STABLE: the switch masks the crash completely.
	if st.Tentative != 0 {
		t.Fatalf("crash failover should be maskable, got %d tentative", st.Tentative)
	}
	if st.StableDuplicates != 0 {
		t.Fatalf("failover duplicated %d stable tuples", st.StableDuplicates)
	}
	// Detection (keep-alive timeout ≈ 250ms) + switch + replay: the
	// client keeps receiving within well under a second of extra delay.
	if st.MaxLatency > 1500*ms {
		t.Fatalf("failover gap too long: %d ms", st.MaxLatency/ms)
	}
	if dep.Client.Proxy().CM().Switches == 0 {
		t.Fatal("client never switched replicas")
	}
}

func TestCrashRecoveryRebuildsReplica(t *testing.T) {
	// §4.5: n1a crashes and later restarts; it must rebuild state from
	// the source logs, return to STABLE, and be a usable failover target
	// when the surviving replica crashes in turn.
	s := chain(1, 60)
	s.Faults = []scenario.FaultSpec{
		{Kind: "crash", Node: "n1", Replica: 0, AtS: 5, DurationS: 10}, // restarts at 15s
		{Kind: "crash", Node: "n1", Replica: 1, AtS: 40},               // after n1a recovered, kill n1b
	}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(30 * sec)
	n1a := dep.Nodes[0][0]
	if n1a.Recovering() {
		t.Fatal("n1a still recovering 15s after restart")
	}
	if n1a.State() != node.StateStable {
		t.Fatalf("recovered node state = %v, want STABLE", n1a.State())
	}
	dep.RunFor(30 * sec) // n1b crashes at 40s; client must fail over to n1a
	st := dep.Client.Stats()
	if st.Tentative != 0 {
		t.Fatalf("failover to a recovered replica should be clean, got %d tentative", st.Tentative)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	if dep.Client.Proxy().CM().Switches < 2 {
		t.Fatalf("client should have switched twice, got %d", dep.Client.Proxy().CM().Switches)
	}
}

func TestChainDepth2StallFailure(t *testing.T) {
	s := chain(2, 25)
	s.Faults = []scenario.FaultSpec{stall("s1", 5, 5)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(25 * sec)
	st := dep.Client.Stats()
	if st.Tentative == 0 {
		t.Fatal("stall failure must produce tentative output")
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	// Every replica at every level reconciled exactly once, staggered.
	for li, row := range dep.Nodes {
		for _, n := range row {
			if n.Reconciliations != 1 {
				t.Fatalf("level %d node %s reconciliations = %d, want 1", li+1, n.ID(), n.Reconciliations)
			}
		}
	}
}

func TestJoinPipelineSurvivesFailure(t *testing.T) {
	s := chain(1, 20)
	// The Fig. 12 SJoin, its window holding ≈ 100 tuples of the
	// 300 tuples/s input.
	s.Nodes[0].Operators = []scenario.OperatorSpec{{Kind: "join", WindowMS: 100.0 / 300 * 1000}}
	s.Faults = []scenario.FaultSpec{disconnect("s3", 5, 4)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(20 * sec)
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("join pipeline audit failed: %s", audit.Reason)
	}
	if audit.Compared == 0 {
		t.Fatal("join produced no comparable output")
	}
}

func TestAckTruncationBoundsOutputBuffers(t *testing.T) {
	s := chain(1, 20)
	s.Defaults.AckIntervalMS = 500
	dep := build(t, s)
	dep.Start()
	dep.RunFor(20 * sec)
	ob := dep.Nodes[0][0].Output("n1.out")
	if ob.Truncated == 0 {
		t.Fatal("acks never truncated the output buffer")
	}
	// The buffer must stay bounded well below the full run's output.
	if ob.Len() > 3000 {
		t.Fatalf("output buffer grew to %d tuples despite acks", ob.Len())
	}
}

// sunionTree is the Fig. 10 deployment: one unreplicated node running the
// left-deep cascade of SUnions over four sources s1–s4 at 400 tuples/s in
// total, D = 2 s, stabilizing with Suspend.
func sunionTree(durationS float64) *scenario.Spec {
	one := 1
	return &scenario.Spec{
		Name:      "sunion-tree",
		DurationS: durationS,
		Defaults:  scenario.Defaults{DelayS: 2, Stabilization: "suspend"},
		Sources:   []scenario.SourceSpec{{Name: "s", Count: 4, Rate: 400}},
		Nodes:     []scenario.NodeSpec{{Name: "n1", Inputs: []string{"s"}, Replicas: &one, Cascade: true}},
	}
}

func TestSUnionTreeOverlappingFailures(t *testing.T) {
	// Fig. 11(a): failures on inputs 1 and 3 overlap; corrections happen
	// once, after both heal.
	s := sunionTree(25)
	s.Faults = []scenario.FaultSpec{
		disconnect("s1", 5, 6), // failure 1 heals first, at 11s
		disconnect("s3", 8, 6),
	}
	dep := build(t, s)
	n := dep.Nodes[0][0]
	dep.Start()
	dep.RunFor(25 * sec)
	if n.Reconciliations != 1 {
		t.Fatalf("overlapping failures must reconcile once, got %d", n.Reconciliations)
	}
	st := dep.Client.Stats()
	if st.Tentative == 0 || st.RecDones == 0 {
		t.Fatalf("expected tentative output and a rec_done: %+v", st)
	}
	// Reference: same tree without failures.
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestSUnionTreeFailureDuringRecovery(t *testing.T) {
	// Fig. 11(b): failure 2 strikes as failure 1 heals; each correction
	// sequence ends with its own REC_DONE and only the second failure's
	// tentative tuples are corrected the second time.
	s := sunionTree(30)
	s.Faults = []scenario.FaultSpec{
		disconnect("s1", 5, 5),
		disconnect("s3", 10, 6), // strikes right at heal time
	}
	dep := build(t, s)
	n := dep.Nodes[0][0]
	dep.Start()
	dep.RunFor(30 * sec)
	if n.Reconciliations != 2 {
		t.Fatalf("want 2 reconciliations (one per failure), got %d", n.Reconciliations)
	}
	st := dep.Client.Stats()
	if st.RecDones < 2 {
		t.Fatalf("want ≥ 2 rec_done markers, got %d", st.RecDones)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestDelayPolicyReducesTentativeCount(t *testing.T) {
	run := func(policy string) uint64 {
		s := chain(1, 25)
		s.Sources[0].Rate = 600
		s.Defaults.FailurePolicy = policy
		s.Defaults.Stabilization = policy
		s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 6)}
		dep := build(t, s)
		dep.Start()
		dep.RunFor(25 * sec)
		return dep.Client.Stats().Tentative
	}
	pp := run("process")
	dd := run("delay")
	if pp == 0 {
		t.Fatal("process&process produced no tentative tuples")
	}
	if dd >= pp {
		t.Fatalf("delay&delay (%d) must beat process&process (%d)", dd, pp)
	}
}

// TestChainPresetEquivalence: a chain built from a scenario spec has the
// exact shape the experiments rely on — level/replica naming, per-level
// streams, and the generalized topology behind it.
func TestChainPresetEquivalence(t *testing.T) {
	s := chain(2, 10)
	s.Sources[0] = scenario.SourceSpec{Name: "s", Count: 2, Rate: 200}
	dep := build(t, s)
	if dep.Topology == nil {
		t.Fatal("chain scenario did not go through BuildTopology")
	}
	if got := dep.Nodes[0][0].ID(); got != "n1a" {
		t.Fatalf("node ID = %q, want n1a", got)
	}
	if got := dep.Nodes[1][1].ID(); got != "n2b" {
		t.Fatalf("node ID = %q, want n2b", got)
	}
	if dep.Group("n2")[0] != dep.Nodes[1][0] {
		t.Fatal("Group(n2) does not match Nodes[1]")
	}
	if got := dep.Topology.Client.Stream; got != "n2.out" {
		t.Fatalf("client stream = %q, want n2.out", got)
	}
}
