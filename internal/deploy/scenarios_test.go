package deploy_test

import (
	"testing"

	"borealis/internal/client"
	"borealis/internal/node"
	"borealis/internal/scenario"
	"borealis/internal/tuple"
)

// TestTwoSimultaneousSourceFailures: DPC handles multiple concurrent
// failures (§2.2); corrections happen once, after both heal.
func TestTwoSimultaneousSourceFailures(t *testing.T) {
	s := chain(1, 30)
	s.Faults = []scenario.FaultSpec{
		disconnect("s1", 5, 8),
		disconnect("s3", 7, 4), // overlaps, heals first
	}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(30 * sec)
	for _, n := range dep.Nodes[0] {
		if n.Reconciliations != 1 {
			t.Fatalf("%s reconciliations = %d, want 1 (after all failures heal)", n.ID(), n.Reconciliations)
		}
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
}

// TestAllSourcesFail: with every input gone, the only tentative output is
// the flush of the partial buckets in flight at the moment of failure; the
// silence that follows carries no availability obligation (Property 1 needs
// available inputs), and everything is corrected on heal.
func TestAllSourcesFail(t *testing.T) {
	s := chain(1, 25)
	s.Faults = []scenario.FaultSpec{disconnect("s", 5, 5)} // every member of s
	dep := build(t, s)
	dep.Start()
	dep.RunFor(25 * sec)
	st := dep.Client.Stats()
	if st.Tentative > uint64(s.Sources[0].Rate) {
		t.Fatalf("only the in-flight partial buckets may go tentative, got %d", st.Tentative)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
}

// TestDepth4ChainLongStall exercises the full Fig. 14 topology through a
// failure longer than the pipeline delay.
func TestDepth4ChainLongStall(t *testing.T) {
	s := chain(4, 60)
	s.Faults = []scenario.FaultSpec{stall("s2", 5, 15)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(60 * sec)
	st := dep.Client.Stats()
	if st.Tentative == 0 {
		t.Fatal("long stall must produce tentative output")
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
	for li, row := range dep.Nodes {
		for _, n := range row {
			if n.State() != node.StateStable {
				t.Fatalf("level %d %s not stable after recovery", li+1, n.ID())
			}
		}
	}
}

// TestTentativeBoundariesChainConsistency: the footnote-5 extension must
// not affect the corrected stream, only latency.
func TestTentativeBoundariesChainConsistency(t *testing.T) {
	s := chain(3, 30)
	for i := range s.Nodes {
		s.Nodes[i].TentativeBoundaries = true
	}
	s.Client.TentativeBoundaries = true
	s.Faults = []scenario.FaultSpec{stall("s1", 5, 6)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(30 * sec)
	if dep.Client.Stats().Tentative == 0 {
		t.Fatal("expected tentative output")
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
}

// TestFineGrainedKeepsUnaffectedStreamStable (§8.2): a node with two
// disjoint paths advertises per-stream states, so a failure on one input
// leaves the other path's consumers untouched.
func TestFineGrainedKeepsUnaffectedStreamStable(t *testing.T) {
	s := chain(1, 25)
	s.Nodes[0].FineGrained = true
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 4)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(25 * sec)
	// The single output is affected here (all inputs merge), so this
	// checks that fine-grained mode at least matches whole-node results.
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("fine-grained audit: %s", audit.Reason)
	}
}

// TestPartitionBetweenLevels: a network partition between chain levels is
// detected by boundary silence plus keep-alive timeouts and healed with a
// resubscription replay.
func TestPartitionBetweenLevels(t *testing.T) {
	s := chain(2, 30)
	// Cut n2a from both level-1 replicas: n2a must fail over... to
	// nothing (both upstreams unreachable), stall, then recover when the
	// partition heals. Meanwhile the client can switch to n2b.
	s.Faults = []scenario.FaultSpec{{Kind: "partition", From: "n2/0", To: "n1", AtS: 6, DurationS: 5}}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(30 * sec)
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
	if dep.Client.Stats().StableDuplicates != 0 {
		t.Fatal("partition healing duplicated stable tuples")
	}
}

// TestRepeatedFailuresOnSameStream: failure → recovery → failure again,
// exercising checkpoint-epoch turnover.
func TestRepeatedFailuresOnSameStream(t *testing.T) {
	s := chain(1, 50)
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 4), disconnect("s2", 25, 4)}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(50 * sec)
	for _, n := range dep.Nodes[0] {
		if n.Reconciliations != 2 {
			t.Fatalf("%s reconciliations = %d, want 2", n.ID(), n.Reconciliations)
		}
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("audit: %s", audit.Reason)
	}
}

// TestSuspendStabilizationSkipsStagger: with PolicySuspend both replicas
// reconcile simultaneously — no replica stays available.
func TestSuspendStabilizationSkipsStagger(t *testing.T) {
	s := chain(1, 30)
	s.Defaults.Capacity = 1000 // finite: stabilization takes observable time
	s.Defaults.Stabilization = "suspend"
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 6)}
	dep := build(t, s)
	var aStart, bStart int64
	dep.Sim.NewTicker(10*ms, func() {
		if aStart == 0 && dep.Nodes[0][0].State() == node.StateStabilization {
			aStart = dep.Sim.Now()
		}
		if bStart == 0 && dep.Nodes[0][1].State() == node.StateStabilization {
			bStart = dep.Sim.Now()
		}
	})
	dep.Start()
	dep.RunFor(30 * sec)
	if aStart == 0 || bStart == 0 {
		t.Fatal("both replicas should have reconciled")
	}
	gap := aStart - bStart
	if gap < 0 {
		gap = -gap
	}
	if gap > 500*ms {
		t.Fatalf("suspend variant should reconcile simultaneously, gap %d ms", gap/ms)
	}
}

// TestStaggeredStabilizationKeepsOneReplicaUp: with Process, the replicas
// must NOT overlap in STABILIZATION.
func TestStaggeredStabilizationKeepsOneReplicaUp(t *testing.T) {
	s := chain(1, 40)
	s.Sources[0].Rate = 900
	s.Defaults.Capacity = 2500 // finite: stabilization takes observable time
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 8)}
	dep := build(t, s)
	overlap := false
	dep.Sim.NewTicker(10*ms, func() {
		a := dep.Nodes[0][0].State() == node.StateStabilization
		b := dep.Nodes[0][1].State() == node.StateStabilization
		if a && b {
			overlap = true
		}
	})
	dep.Start()
	dep.RunFor(40 * sec)
	if overlap {
		t.Fatal("stagger protocol let both replicas reconcile at once")
	}
	if dep.Nodes[0][0].Reconciliations+dep.Nodes[0][1].Reconciliations != 2 {
		t.Fatal("both replicas should eventually reconcile")
	}
}

// TestClientFollowsCorrectionsThroughDualConnection inspects the §4.4.3
// mechanics end to end: during one replica's stabilization the client keeps
// receiving fresh (tentative) data from the other.
func TestClientFollowsCorrectionsThroughDualConnection(t *testing.T) {
	s := chain(1, 40)
	s.Sources[0].Rate = 600
	s.Defaults.Capacity = 1500 // finite: stabilization takes observable time
	s.Faults = []scenario.FaultSpec{disconnect("s2", 5, 10)}
	dep := build(t, s)
	// Track what arrives while either replica stabilizes.
	var freshDuringStab int
	stabActive := func() bool {
		return dep.Nodes[0][0].State() == node.StateStabilization ||
			dep.Nodes[0][1].State() == node.StateStabilization
	}
	dep.Client.OnDeliver(func(d client.Delivery) {
		if d.Tuple.Type == tuple.Tentative && stabActive() {
			freshDuringStab++
		}
	})
	dep.Start()
	dep.RunFor(40 * sec)
	if freshDuringStab == 0 {
		t.Fatal("client received no fresh data during stabilization: dual connection broken")
	}
}
