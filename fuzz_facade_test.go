package borealis_test

import (
	"testing"

	borealis "borealis"
)

// TestFuzzFacade drives the fuzzing surface end to end through the public
// API: generate a spec, run it with the audit, oracle-check the report,
// and run a tiny deterministic campaign of generated specs.
func TestFuzzFacade(t *testing.T) {
	spec := borealis.FuzzSpec(7)
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	rep, err := borealis.RunScenario(spec, borealis.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistency == nil {
		t.Fatal("generated specs must carry the Definition 1 audit")
	}
	_ = borealis.FuzzCheck(spec, rep) // findings are data, not errors

	st, err := borealis.Soak(borealis.SoakOptions{Seed: 3, BatchRuns: 4, MaxBatches: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 4 || st.Seed != 3 || st.Mutated != 0 {
		t.Fatalf("state echo wrong: %+v", st)
	}
}

// TestSoakFacade drives the soak surface end to end through the public
// API: mutate a generated spec, run a one-batch campaign over a tiny
// mutation pool, and differential-check the mutant.
func TestSoakFacade(t *testing.T) {
	base := borealis.FuzzSpec(7)
	mutant := borealis.FuzzMutate(base, 11)
	if err := mutant.Validate(); err != nil {
		t.Fatalf("mutant invalid: %v", err)
	}

	st, err := borealis.Soak(borealis.SoakOptions{
		Seed:         13,
		BatchRuns:    3,
		MaxBatches:   1,
		MutationPool: []*borealis.Scenario{base},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Runs != 3 {
		t.Fatalf("state echo wrong: %+v", st)
	}

	if fs := borealis.CheckDifferential(base); len(fs) != 0 {
		t.Fatalf("differential divergence on a generated spec: %v", fs)
	}
}

// TestRepeatFacade exercises the seed-family surface.
func TestRepeatFacade(t *testing.T) {
	spec := borealis.FuzzSpec(5)
	spec.VerifyConsistency = false
	spec.Faults = nil
	fam := borealis.SeedFamily(spec, 3)
	reports, err := borealis.RunMany(fam, borealis.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := borealis.RepeatStats(reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no metric stats")
	}
	for _, st := range stats {
		if st.Min > st.Max {
			t.Fatalf("stats inverted: %+v", st)
		}
	}
}
