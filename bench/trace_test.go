package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
)

func reportJSON(t *testing.T, spec *scenario.Spec, rt rtpkg.Runtime) []byte {
	t.Helper()
	rep, err := scenario.Run(spec, scenario.Options{Runtime: rt, SkipConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A run under the decorating Runtime yields a byte-identical report to an
// undecorated one — on the fault-free plane and on the correction path —
// and the tracer attributes what it saw.
func TestTracedRuntimeReportIdentical(t *testing.T) {
	for _, tc := range []struct {
		name      string
		durationS float64
	}{{"chain_stateless", 2}, {"join_aggregate", 3}, {"chain_recovery", 16}} {
		spec, err := Generate(tc.name, 7, tc.durationS)
		if err != nil {
			t.Fatal(err)
		}
		bare := reportJSON(t, spec, nil)
		tr := newTracer()
		traced := reportJSON(t, spec, tr.runtime(rtpkg.NewVirtual()))
		if !bytes.Equal(bare, traced) {
			t.Errorf("%s: report under the decorating Runtime differs from the bare one", tc.name)
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", tc.name, len(tr.open))
		}
		if tr.events == 0 || tr.self[lyEngine] == 0 || tr.self[lySource] == 0 || tr.self[lyFabric] == 0 {
			t.Errorf("%s: tracer saw events=%d engine=%d source=%d fabric=%d ns", tc.name, tr.events, tr.self[lyEngine], tr.self[lySource], tr.self[lyFabric])
		}
		if tc.name == "chain_recovery" && tr.self[lyOperator] == 0 {
			t.Errorf("chain_recovery: no operator-owned timer was attributed (SUnion delay timers)")
		}
	}
}

// workerReportJSON runs every endpoint of the spec as one partition on the
// runtime and fabric build returns (nil: a bare VirtualClock and netsim).
func workerReportJSON(t *testing.T, spec *scenario.Spec, build func() (rtpkg.Runtime, fabric.Fabric)) []byte {
	t.Helper()
	var rt rtpkg.Runtime = rtpkg.NewVirtual()
	var fab fabric.Fabric = netsim.New(rt)
	if build != nil {
		rt, fab = build()
	}
	owned := map[string]bool{}
	for _, id := range scenario.Endpoints(spec) {
		owned[id] = true
	}
	pr, err := scenario.CompilePartition(rt, fab, spec, owned, false)
	if err != nil {
		t.Fatal(err)
	}
	pr.Deployment().Start()
	rt.RunUntil(pr.DurationUS())
	b, err := json.Marshal(pr.WorkerReport("w0"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The same for the decorating Fabric, on the seam the wire workload uses:
// CompilePartition onto a caller-supplied runtime and fabric.
func TestTracedFabricReportIdentical(t *testing.T) {
	spec, err := Generate("wire_steady", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	bare := workerReportJSON(t, spec, nil)
	tr := newTracer()
	traced := workerReportJSON(t, spec, func() (rtpkg.Runtime, fabric.Fabric) {
		// The fabric delivers through the clock it was built on: decorate
		// the runtime first so deliveries are spans too.
		rt := tr.runtime(rtpkg.NewVirtual())
		return rt, &tracedFabric{Fabric: netsim.New(rt), tr: tr,
			isLocal: func(string) bool { return true },
			layerOf: func(id string) layerID {
				if id == "client" {
					return lyClient
				}
				return lyNode
			}}
	})
	if !bytes.Equal(bare, traced) {
		t.Errorf("worker report under the decorating Runtime and Fabric differs from the bare one")
	}
	if len(tr.open) != 0 || tr.msgs == 0 || tr.tuples == 0 || tr.self[lyClient] == 0 || tr.calls[lyFabric] == 0 {
		t.Errorf("tracer: open=%d msgs=%d tuples=%d client=%dns fabric spans=%d", len(tr.open), tr.msgs, tr.tuples, tr.self[lyClient], tr.calls[lyFabric])
	}
}

// Driving RunFor in one-second slices executes exactly what one RunFor of
// the whole length does, and handler interposition changes nothing.
func TestSlicedAndInterposedRunsProcessTheSame(t *testing.T) {
	spec, err := Generate("chain_stateless", 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := scenario.Build(spec, scenario.Options{NoAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(3e6)
	whole := processedTuples(dep)

	sliced, err := virtualRep("chain_stateless", 7, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := record("chain_stateless", 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sliced.processed != whole || rec.processed != whole {
		t.Errorf("processed tuples: whole run %d, sliced %d, recorded %d", whole, sliced.processed, rec.processed)
	}
	if len(sliced.sliceMS) != 3 {
		t.Errorf("%d slices for 3 virtual seconds", len(sliced.sliceMS))
	}
	if rec.nodeTuples == 0 || rec.clientTuples == 0 || len(rec.byEndpoint["client"]) == 0 || len(rec.byEndpoint["n1a"]) == 0 {
		t.Errorf("recording is empty: node tuples %d, client tuples %d", rec.nodeTuples, rec.clientTuples)
	}
}

// The layer probes run on a short recording of every virtual workload and
// report each layer the workload uses.
func TestProbesCoverTheirLayers(t *testing.T) {
	rec, err := record("join_aggregate", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := runProbes(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"source", "netsim", "vclock", "wclock", "inputmgr", "engine", "outbuf", "client",
		"sunion", "stateless", "soutput", "sjoin", "aggregate", "encode", "decode", "tcp"} {
		if st := ps.st[name]; st.units == 0 || st.ns == 0 {
			t.Errorf("probe %s measured nothing: %+v", name, st)
		}
	}
	if ps.sjoinState == 0 || ps.aggWindows == 0 {
		t.Errorf("join state %d, open windows %d", ps.sjoinState, ps.aggWindows)
	}
	// The standalone engine on replica a's recorded input processes what
	// replica a processed in the run: half the deployment's two replicas.
	if got, want := uint64(ps.st["engine"].units)*2, rec.processed; got != want {
		t.Errorf("engine probe processed %d tuples per replica, the run %d over two replicas", got/2, want)
	}
}

// One short run of the wire workload: real sockets and wall clocks, so the
// only assertions are on correctness, never on time.
func TestWireRunAudits(t *testing.T) {
	run, err := runWireOnce(7, 500*time.Millisecond, time.Second, wireDecor{})
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(workloadByName("wire_steady"), 7)
	run.audit(res)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("wire audit: correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	if m := run.metrics(); m.delivered == 0 || len(m.all) == 0 {
		t.Errorf("no tuple sampled in the steady window")
	}
}

// A failed check is counted as failed operations and a wrong exit, never
// as a clean run; a wedged repetition hits the watchdog instead of hanging.
func TestFailureAccounting(t *testing.T) {
	res := newResult(&workloads[0], 7)
	res.Attempted = 5
	res.fail(0, "a check without a count")
	if res.Correct || res.Failed != 1 || len(res.Failures) != 1 {
		t.Errorf("fail(0): correct=%v failed=%d", res.Correct, res.Failed)
	}
	if err := guarded(10*time.Millisecond, func() error { select {} }); err != errWatchdog {
		t.Errorf("wedged repetition returned %v, want the watchdog error", err)
	}
	if err := guarded(time.Second, func() error { panic("boom") }); err == nil || err == errWatchdog {
		t.Errorf("panicking repetition returned %v, want the panic as an error", err)
	}
}
