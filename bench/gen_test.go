package main

import (
	"encoding/json"
	"testing"
)

func specJSON(t *testing.T, name string, seed int64) string {
	t.Helper()
	s, err := Generate(name, seed, 0)
	if err != nil {
		t.Fatalf("Generate(%s, %d): %v", name, seed, err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The generator is a pure function of (name, seed): the same pair gives the
// same spec, another seed gives another spec.
func TestGeneratePure(t *testing.T) {
	for _, w := range workloads {
		a, b := specJSON(t, w.Name, 7), specJSON(t, w.Name, 7)
		if a != b {
			t.Errorf("%s: two generations from seed 7 differ", w.Name)
		}
		if c := specJSON(t, w.Name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generate the same spec", w.Name)
		}
	}
	if _, err := Generate("no_such_workload", 7, 0); err == nil {
		t.Error("unknown workload generated a spec")
	}
}

// What makes numbers comparable across seeds is fixed per workload: shape,
// total offered rate, duration and the fault schedule.
func TestGenerateFixedAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		base, err := Generate(w.Name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(2); seed < 12; seed++ {
			s, err := Generate(w.Name, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Seed != seed {
				t.Errorf("%s seed %d: spec.seed = %d", w.Name, seed, s.Seed)
			}
			if s.DurationS != base.DurationS || len(s.Nodes) != len(base.Nodes) || len(s.Sources) != len(base.Sources) {
				t.Errorf("%s seed %d: shape or duration moved with the seed", w.Name, seed)
			}
			var rate, baseRate float64
			for i := range s.Sources {
				rate += s.Sources[i].Rate
				baseRate += base.Sources[i].Rate
				if s.Sources[i].LogCap != 0 {
					// A capped log on a WallClock never reaches its horizon
					// at these rates: source.append recopies the capped log
					// per tuple. No workload sets log_cap.
					t.Errorf("%s seed %d: source sets log_cap", w.Name, seed)
				}
			}
			if rate != baseRate {
				t.Errorf("%s seed %d: total rate %v, seed 1 has %v", w.Name, seed, rate, baseRate)
			}
			fa, _ := json.Marshal(s.Faults)
			fb, _ := json.Marshal(base.Faults)
			if string(fa) != string(fb) {
				t.Errorf("%s seed %d: fault schedule moved with the seed", w.Name, seed)
			}
			for i := range s.Nodes {
				if len(s.Nodes[i].Operators) != len(base.Nodes[i].Operators) {
					t.Errorf("%s seed %d: node %s operator count moved with the seed", w.Name, seed, s.Nodes[i].Name)
				}
			}
		}
	}
}
