package fuzz

import (
	"encoding/json"
	"reflect"
	"testing"

	"borealis/internal/scenario"
)

// TestGenSpecValidAndDeterministic: every generated spec passes Validate
// (GenSpec panics otherwise) and the same seed reproduces the same spec
// bit for bit.
func TestGenSpecValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		a := GenSpec(seed)
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		b := GenSpec(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}

// TestGenSpecCoverage: across a modest seed range the generator exercises
// every fault kind, workload kind, the zipf distribution, cascades, and
// every delay policy — the fuzzer cannot find bugs in shapes it never
// generates.
func TestGenSpecCoverage(t *testing.T) {
	faultKinds := map[string]bool{}
	workloads := map[string]bool{}
	policies := map[string]bool{}
	zipf, cascade, permanent, multiNode := false, false, false, false
	for seed := int64(0); seed < 500; seed++ {
		s := GenSpec(seed)
		for _, f := range s.Faults {
			faultKinds[f.Kind] = true
			if f.Kind == "crash" && f.DurationS == 0 {
				permanent = true
			}
		}
		for _, src := range s.Sources {
			if src.Workload.Kind != "" {
				workloads[src.Workload.Kind] = true
			}
			if src.Distribution == "zipf" {
				zipf = true
			}
		}
		for _, n := range s.Nodes {
			cascade = cascade || n.Cascade
			if n.FailurePolicy != "" {
				policies[n.FailurePolicy] = true
			}
			if n.Stabilization != "" {
				policies[n.Stabilization] = true
			}
		}
		multiNode = multiNode || len(s.Nodes) >= 3
	}
	for _, k := range []string{"crash", "flap", "disconnect", "stall_boundaries", "partition"} {
		if !faultKinds[k] {
			t.Errorf("no generated spec contains fault kind %q", k)
		}
	}
	for _, k := range []string{"bursty", "ramp"} {
		if !workloads[k] {
			t.Errorf("no generated spec contains workload kind %q", k)
		}
	}
	for _, p := range []string{"process", "delay", "suspend"} {
		if !policies[p] {
			t.Errorf("no generated spec uses policy %q", p)
		}
	}
	if !zipf || !cascade || !permanent || !multiNode {
		t.Errorf("coverage gaps: zipf=%v cascade=%v permanent-crash=%v multi-node=%v",
			zipf, cascade, permanent, multiNode)
	}
}

// TestGenSpecQuietTail: the generator's structural guarantee — every
// fault heals at least settleTailS before the run ends, so end-of-run
// oracles are meaningful on every generated spec.
func TestGenSpecQuietTail(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		s := GenSpec(seed)
		tail := faultTailOf(s, false)
		if len(s.Faults) == 0 {
			if !tail.quietAtEnd(s) {
				t.Fatalf("seed %d: fault-free spec not quiet", seed)
			}
			continue
		}
		if heal := tail.lastHealS; heal+settleTailS(s) > s.DurationS+1e-9 {
			t.Fatalf("seed %d: last heal %.1fs + tail %.1fs exceeds duration %.1fs",
				seed, heal, settleTailS(s), s.DurationS)
		}
		// quietAtEnd may legitimately be false only for fully crashed
		// groups, which the generator never produces.
		if !tail.quietAtEnd(s) {
			t.Fatalf("seed %d: generated schedule not quiet at end", seed)
		}
	}
}

// TestCampaignDeterministic: a fixed campaign — one soak batch of 20
// generated specs, no mutation pool — yields a byte-identical state across
// repetitions and worker counts.
func TestCampaignDeterministic(t *testing.T) {
	render := func(parallelism int) []byte {
		st, err := Soak(SoakOptions{Seed: 11, BatchRuns: 20, MaxBatches: 1, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != 20 || st.Mutated != 0 {
			t.Fatalf("want 20 generated runs, got %d (%d mutated)", st.Runs, st.Mutated)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	again := render(1)
	pooled := render(0)
	if string(serial) != string(again) {
		t.Fatal("same seed produced different campaign states")
	}
	if string(serial) != string(pooled) {
		t.Fatal("worker count changed the campaign state")
	}
}

// TestOracleWedgedSUnion: a live replica still holding tentative tuples
// after the schedule went quiet is flagged; the same state mid-fault is
// not.
func TestOracleWedgedSUnion(t *testing.T) {
	s := GenSpec(1)
	s.Faults = nil
	rep := &scenario.Report{
		Scenario:  s.Name,
		DurationS: s.DurationS,
		Nodes: []scenario.NodeReport{
			{Node: "n1", Replica: "n1a", State: "STABLE", HoldsTentative: true},
		},
	}
	if !hasOracle(Check(s, rep), "wedged-sunion") {
		t.Fatal("held tentative bucket after quiet end not flagged")
	}
	// A crashed replica is exempt.
	rep.Nodes[0].Down = true
	if hasOracle(Check(s, rep), "wedged-sunion") {
		t.Fatal("crashed replica must not be flagged as wedged")
	}
	// A fault healing too close to the end suppresses the oracle.
	rep.Nodes[0].Down = false
	s.Faults = []scenario.FaultSpec{{Kind: "disconnect", Source: s.Sources[0].Name,
		AtS: s.DurationS - 3, DurationS: 2}}
	if hasOracle(Check(s, rep), "wedged-sunion") {
		t.Fatal("wedge flagged without a quiet tail")
	}
}

// TestOracleStarvation: a stable stream far short of the fault-free
// reference is flagged once quiet; matching counts are not.
func TestOracleStarvation(t *testing.T) {
	s := GenSpec(2)
	s.Faults = nil
	rep := &scenario.Report{
		DurationS:   s.DurationS,
		Consistency: &scenario.ConsistencyReport{OK: true, Compared: 100, GotStable: 100, RefStable: 1000},
	}
	if !hasOracle(Check(s, rep), "starvation") {
		t.Fatal("starved stable stream not flagged")
	}
	rep.Consistency.GotStable = 995
	if hasOracle(Check(s, rep), "starvation") {
		t.Fatal("healthy stream flagged as starved")
	}
}

// TestOracleAvailability: bound violations without any fault (and with
// unbounded capacity) are flagged; the same count under a fault schedule
// is not.
func TestOracleAvailability(t *testing.T) {
	s := GenSpec(3)
	s.Faults = nil
	rep := &scenario.Report{DurationS: s.DurationS}
	rep.Availability.Violations = 4
	rep.Availability.MaxExcessS = 0.25
	if !hasOracle(Check(s, rep), "availability") {
		t.Fatal("fault-free availability violation not flagged")
	}
	s.Faults = []scenario.FaultSpec{{Kind: "disconnect", Source: s.Sources[0].Name, AtS: 3, DurationS: 2}}
	if hasOracle(Check(s, rep), "availability") {
		t.Fatal("violations under a fault schedule must not be flagged")
	}
}

// TestOracleReportInvariants: internally inconsistent metrics are caught.
func TestOracleReportInvariants(t *testing.T) {
	s := GenSpec(4)
	s.Faults = nil
	rep := &scenario.Report{DurationS: s.DurationS}
	rep.Client.NewTuples = 100
	rep.Client.ThroughputTPS = 1 // wrong: 100 / duration
	if !hasOracle(Check(s, rep), "report-invariant") {
		t.Fatal("throughput mismatch not flagged")
	}
	rep.Client.ThroughputTPS = round3(100 / s.DurationS)
	rep.Client.Tentative = 2
	rep.Client.MaxTentativeStreak = 5
	if !hasOracle(Check(s, rep), "report-invariant") {
		t.Fatal("streak > tentative not flagged")
	}
}

// TestCuratedSpecsPassOracles: the curated scenarios are the known-good
// baseline; the oracles must hold on them (quick mode), or the fuzzer
// would drown in false positives.
func TestCuratedSpecsPassOracles(t *testing.T) {
	spec, err := scenario.Load("../../scenarios/chain-disconnect.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, findings := RunSpec(spec, scenario.Options{Quick: true})
	if rep == nil || len(findings) > 0 {
		t.Fatalf("curated spec flagged: %v", findings)
	}
}

func hasOracle(fs []Finding, oracle string) bool {
	for _, f := range fs {
		if f.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestGenClusterSpec: cluster-shaped specs are deterministic, valid,
// always carry at least one partition fault (the cluster smoke exists to
// run link faults on real sockets), and never schedule process faults
// against more distinct targets than a boss with that many workers could
// survive losing.
func TestGenClusterSpec(t *testing.T) {
	const workers = 3
	for seed := int64(0); seed < 300; seed++ {
		a := GenClusterSpec(seed, workers)
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid cluster spec: %v", seed, err)
		}
		b := GenClusterSpec(seed, workers)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: cluster generation is not deterministic", seed)
		}
		if !hasPartitionFault(a) {
			t.Fatalf("seed %d: cluster spec has no partition fault", seed)
		}
		if got := len(scenario.FaultTargets(a)); got >= workers {
			t.Fatalf("seed %d: %d distinct process-fault targets for %d workers",
				seed, got, workers)
		}
	}
}
