package deploy

import (
	"testing"

	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

func pairSpec() ChainSpec {
	return ChainSpec{
		Depth:    1,
		Replicas: 2,
		Sources:  3,
		Rate:     300,
		Delay:    2 * sec,
	}
}

// runClean runs a failure-free copy of the spec and returns the client's
// delivered view as the reference stream for the consistency audit.
func runClean(t *testing.T, spec ChainSpec, dur int64) []tuple.Tuple {
	t.Helper()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(dur)
	return dep.Client.View()
}

func TestStableFlowEndToEnd(t *testing.T) {
	dep, err := BuildChain(pairSpec())
	if err != nil {
		t.Fatal(err)
	}
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
	dep, err := BuildChain(pairSpec())
	if err != nil {
		t.Fatal(err)
	}
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
	spec := pairSpec()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.DisconnectSource(1, 5*sec, 1*sec)
	dep.Start()
	dep.RunFor(15 * sec)
	st := dep.Client.Stats()
	if st.Tentative != 0 {
		t.Fatalf("masked failure produced %d tentative tuples", st.Tentative)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 15*sec))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	if dep.Nodes[0][0].Reconciliations != 0 {
		t.Fatal("masked failure must not reconcile")
	}
}

func TestFailureProducesTentativeThenCorrects(t *testing.T) {
	spec := pairSpec()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.DisconnectSource(1, 5*sec, 6*sec) // 6s failure > 1.8s suspension
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
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 25*sec))
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
	spec := pairSpec()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.DisconnectSource(1, 5*sec, 8*sec)
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
	spec := pairSpec()
	spec.FailurePolicy = operator.PolicySuspend
	spec.StabilizationPolicy = operator.PolicySuspend
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.DisconnectSource(1, 5*sec, 4*sec)
	dep.Start()
	dep.RunFor(20 * sec)
	st := dep.Client.Stats()
	if st.Tentative != 0 {
		t.Fatalf("suspend variant produced %d tentative tuples", st.Tentative)
	}
	if st.MaxLatency < 3900*ms {
		t.Fatalf("suspend latency should reflect the 4s failure, got %d ms", st.MaxLatency/ms)
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 20*sec))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestCrashFailoverToReplica(t *testing.T) {
	spec := pairSpec()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.CrashNode(1, 0, 5*sec) // crash n1a, the client's first upstream
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
	spec := pairSpec()
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.CrashNode(1, 0, 5*sec)
	dep.RestartNode(1, 0, 15*sec)
	dep.CrashNode(1, 1, 40*sec) // after n1a recovered, kill n1b
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
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 60*sec))
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
	if dep.Client.Proxy().CM().Switches < 2 {
		t.Fatalf("client should have switched twice, got %d", dep.Client.Proxy().CM().Switches)
	}
}

func TestChainDepth2StallFailure(t *testing.T) {
	spec := pairSpec()
	spec.Depth = 2
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.StallSourceBoundaries(0, 5*sec, 5*sec)
	dep.Start()
	dep.RunFor(25 * sec)
	st := dep.Client.Stats()
	if st.Tentative == 0 {
		t.Fatal("stall failure must produce tentative output")
	}
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 25*sec))
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
	spec := pairSpec()
	spec.WithJoin = true
	spec.Rate = 300
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.DisconnectSource(2, 5*sec, 4*sec)
	dep.Start()
	dep.RunFor(20 * sec)
	audit := dep.Client.VerifyEventualConsistency(runClean(t, spec, 20*sec))
	if !audit.OK {
		t.Fatalf("join pipeline audit failed: %s", audit.Reason)
	}
	if audit.Compared == 0 {
		t.Fatal("join produced no comparable output")
	}
}

func TestAckTruncationBoundsOutputBuffers(t *testing.T) {
	spec := pairSpec()
	spec.AckInterval = 500 * ms
	dep, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(20 * sec)
	ob := dep.Nodes[0][0].Output("t1")
	if ob.Truncated == 0 {
		t.Fatal("acks never truncated the output buffer")
	}
	// The buffer must stay bounded well below the full run's output.
	if ob.Len() > 3000 {
		t.Fatalf("output buffer grew to %d tuples despite acks", ob.Len())
	}
}

func TestSUnionTreeOverlappingFailures(t *testing.T) {
	// Fig. 11(a): failures on inputs 1 and 3 overlap; corrections happen
	// once, after both heal.
	spec := SUnionTreeSpec{Rate: 400, Delay: 2 * sec, RecordClient: true}
	dep, err := BuildSUnionTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.Nodes[0][0]
	dep.Sim.At(5*sec, dep.Sources[0].Disconnect)
	dep.Sim.At(8*sec, dep.Sources[2].Disconnect)
	dep.Sim.At(11*sec, dep.Sources[0].Reconnect) // failure 1 heals first
	dep.Sim.At(14*sec, dep.Sources[2].Reconnect)
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
	ref, err := BuildSUnionTree(SUnionTreeSpec{Rate: 400, Delay: 2 * sec})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	ref.RunFor(25 * sec)
	audit := dep.Client.VerifyEventualConsistency(ref.Client.View())
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestSUnionTreeFailureDuringRecovery(t *testing.T) {
	// Fig. 11(b): failure 2 strikes as failure 1 heals; each correction
	// sequence ends with its own REC_DONE and only the second failure's
	// tentative tuples are corrected the second time.
	spec := SUnionTreeSpec{Rate: 400, Delay: 2 * sec, RecordClient: true}
	dep, err := BuildSUnionTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.Nodes[0][0]
	dep.Sim.At(5*sec, dep.Sources[0].Disconnect)
	dep.Sim.At(10*sec, func() {
		dep.Sources[0].Reconnect()
		dep.Sources[2].Disconnect() // strikes right at heal time
	})
	dep.Sim.At(16*sec, dep.Sources[2].Reconnect)
	dep.Start()
	dep.RunFor(30 * sec)
	if n.Reconciliations != 2 {
		t.Fatalf("want 2 reconciliations (one per failure), got %d", n.Reconciliations)
	}
	st := dep.Client.Stats()
	if st.RecDones < 2 {
		t.Fatalf("want ≥ 2 rec_done markers, got %d", st.RecDones)
	}
	ref, err := BuildSUnionTree(SUnionTreeSpec{Rate: 400, Delay: 2 * sec})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	ref.RunFor(30 * sec)
	audit := dep.Client.VerifyEventualConsistency(ref.Client.View())
	if !audit.OK {
		t.Fatalf("consistency audit failed: %s", audit.Reason)
	}
}

func TestDelayPolicyReducesTentativeCount(t *testing.T) {
	run := func(fp, sp operator.DelayPolicy) uint64 {
		spec := pairSpec()
		spec.Rate = 600
		spec.FailurePolicy = fp
		spec.StabilizationPolicy = sp
		dep, err := BuildChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		dep.DisconnectSource(1, 5*sec, 6*sec)
		dep.Start()
		dep.RunFor(25 * sec)
		return dep.Client.Stats().Tentative
	}
	pp := run(operator.PolicyProcess, operator.PolicyProcess)
	dd := run(operator.PolicyDelay, operator.PolicyDelay)
	if pp == 0 {
		t.Fatal("process&process produced no tentative tuples")
	}
	if dd >= pp {
		t.Fatalf("delay&delay (%d) must beat process&process (%d)", dd, pp)
	}
}
