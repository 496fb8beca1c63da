package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// minimal returns a small valid spec tests mutate.
func minimal() *Spec {
	return &Spec{
		Name:      "t",
		Seed:      1,
		DurationS: 10,
		Sources:   []SourceSpec{{Name: "s", Rate: 100}},
		Nodes:     []NodeSpec{{Name: "n1", Inputs: []string{"s"}}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := minimal().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Validate's error branches are covered exhaustively by the table in
// validate_test.go.

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","duration_s":1,"sources":[],"nodes":[],"frobnicate":true}`))
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestParseRejectsTrailingContent(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","duration_s":1,"sources":[{"name":"s","rate":1}],"nodes":[{"name":"n","inputs":["s"]}]}{"oops":1}`))
	if err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Fatalf("want trailing-content error, got %v", err)
	}
}

// exercisePRNG is a spec touching every randomized / shaped code path:
// zipf skew, jittered bursts, a ramp, and each fault kind.
func exercisePRNG() *Spec {
	return &Spec{
		Name:              "determinism",
		Seed:              99,
		DurationS:         12,
		VerifyConsistency: true,
		Defaults:          Defaults{Replicas: 2},
		Sources: []SourceSpec{
			{Name: "a", Count: 3, Rate: 240, Distribution: "zipf", Skew: 1.1,
				Workload: WorkloadSpec{Kind: "bursty", PeriodS: 3, JitterPhase: true}},
			{Name: "b", Rate: 120, Workload: WorkloadSpec{Kind: "ramp", ToRate: 240}},
		},
		Nodes: []NodeSpec{
			{Name: "n1", Inputs: []string{"a"}},
			{Name: "n2", Inputs: []string{"b"}},
			{Name: "n3", Inputs: []string{"n1", "n2"}},
		},
		Faults: []FaultSpec{
			{Kind: "crash", Node: "n1", Replica: 0, AtS: 3, DurationS: 3},
			{Kind: "partition", From: "n3", To: "n2", AtS: 4, DurationS: 2},
			{Kind: "disconnect", Source: "a2", AtS: 5, DurationS: 2},
		},
	}
}

// TestDeterminism: same spec + same seed ⇒ bit-identical report.
func TestDeterminism(t *testing.T) {
	var renders [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(exercisePRNG(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, b)
	}
	if !bytes.Equal(renders[0], renders[1]) {
		t.Fatalf("same spec + seed produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			renders[0], renders[1])
	}
}

// TestSeedChangesJitter: a different seed shifts the jittered burst
// phases. Totals are phase-invariant by design (the cyclic schedule
// preserves the mean), so compare the whole reports — burst timing against
// the fixed fault schedule changes latency and tentative patterns.
func TestSeedChangesJitter(t *testing.T) {
	r1, err := Run(exercisePRNG(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := exercisePRNG()
	s2.Seed = 100
	r2, err := Run(s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2.Seed = r1.Seed // ignore the echoed seed itself
	b1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("changing the seed changed nothing; jitter is not seeded")
	}
}

// TestQuickHorizonGatesFaults: a fault past the quick horizon neither
// fires nor counts as a heal.
func TestQuickHorizonGatesFaults(t *testing.T) {
	s := minimal()
	s.DurationS = 40
	s.QuickDurationS = 8
	s.Faults = []FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: 20, DurationS: 5}}
	rep, err := Run(s, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DurationS != 8 {
		t.Fatalf("quick duration = %v, want 8", rep.DurationS)
	}
	if rep.Stabilization.LastFaultHealS != 0 {
		t.Fatalf("heal past the horizon leaked into the report: %+v", rep.Stabilization)
	}
	for _, n := range rep.Nodes {
		if n.Down {
			t.Fatalf("fault past the horizon fired: %+v", n)
		}
	}
}

// TestZipfSkew: zipf-distributed members produce monotonically decreasing
// rates that sum to the aggregate.
func TestZipfSkew(t *testing.T) {
	ss := &SourceSpec{Name: "z", Count: 4, Rate: 400, Distribution: "zipf", Skew: 1.2}
	rates := memberRates(ss)
	var sum float64
	for i, r := range rates {
		sum += r
		if i > 0 && rates[i] >= rates[i-1] {
			t.Fatalf("zipf rates not decreasing: %v", rates)
		}
	}
	if sum < 399.9 || sum > 400.1 {
		t.Fatalf("zipf rates sum to %v, want 400", sum)
	}
}

// TestScenarioConsistencyAudit: the flagship diamond scenario stays
// eventually consistent under overlapping partitions.
func TestScenarioConsistencyAudit(t *testing.T) {
	spec, err := Load("../../scenarios/diamond-overlapping-partitions.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistency == nil || !rep.Consistency.OK {
		t.Fatalf("consistency audit failed: %+v", rep.Consistency)
	}
	if rep.Client.Tentative == 0 {
		t.Fatal("overlapping partitions produced no tentative data; scenario is too tame")
	}
	if rep.Client.RecDones == 0 {
		t.Fatal("no REC_DONE reached the client")
	}
}

// TestOverlappingPartitionsOnOnePair: two partition faults of the same
// endpoint pair whose windows overlap (2-6s and 4-10s). The link table
// counts blocks, so the first fault's heal at 6s must leave the pair
// severed until the second heals at 10s — and the run must still converge
// to a consistent stable stream afterwards.
func TestOverlappingPartitionsOnOnePair(t *testing.T) {
	s := minimal()
	s.DurationS = 20
	s.VerifyConsistency = true
	s.Defaults.Replicas = 2
	s.Faults = []FaultSpec{
		{Kind: "partition", From: "s", To: "n1/0", AtS: 2, DurationS: 4},
		{Kind: "partition", From: "n1/0", To: "s", AtS: 4, DurationS: 6},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	dep, err := Build(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	reachable := func() bool { return dep.Net.Reachable("s", "n1a") || dep.Net.Reachable("n1a", "s") }
	for _, step := range []struct {
		untilS float64
		want   bool
	}{{1, true}, {3, false}, {5, false}, {7, false}, {9, false}, {11, true}} {
		dep.RT.RunUntil(seconds(step.untilS))
		if got := reachable(); got != step.want {
			t.Fatalf("t=%gs: s <-> n1a reachable = %v, want %v", step.untilS, got, step.want)
		}
	}

	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistency == nil || !rep.Consistency.OK {
		t.Fatalf("overlapping partitions of one pair broke eventual consistency: %+v", rep.Consistency)
	}
}
