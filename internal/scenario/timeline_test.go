// External test package: the timeline properties run over internal/fuzz's
// generated specs, and fuzz imports this package.
package scenario_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"borealis/internal/fuzz"
	"borealis/internal/netsim"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
)

// TestRunEqualsMergeOfOneFragment: the two ways to a Report agree. For
// every curated and corpus spec, with the process- and link-level faults a
// partition leaves to the boss dropped, a single-process run and the merge
// of the one fragment of a partition owning every endpoint render the same
// bytes — apart from the queue-depth series only a single-process run
// samples and the transport section only a merge carries.
func TestRunEqualsMergeOfOneFragment(t *testing.T) {
	var paths []string
	for _, glob := range []string{"../../scenarios/*.json", "../../scenarios/corpus/*.json"} {
		p, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p...)
	}
	if len(paths) < 15 {
		t.Fatalf("only %d curated and corpus specs found", len(paths))
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Clone()
			bossOnly := map[int]bool{}
			for _, ev := range scenario.Timeline(spec, true) {
				switch ev.Kind {
				case scenario.EvCrash, scenario.EvRestart, scenario.EvBlock, scenario.EvUnblock:
					bossOnly[ev.Fault] = true
				}
			}
			kept := spec.Faults[:0]
			for i, f := range spec.Faults {
				if !bossOnly[i] {
					kept = append(kept, f)
				}
			}
			spec.Faults = kept

			rep, err := scenario.Run(spec, scenario.Options{Quick: true, SkipConsistency: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range rep.Nodes {
				rep.Nodes[i].QueueDepthSeries = nil
			}
			want, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}

			clk := rtpkg.NewVirtual()
			owned := map[string]bool{}
			for _, id := range scenario.Endpoints(spec) {
				owned[id] = true
			}
			pr, err := scenario.CompilePartition(clk, netsim.New(clk), spec, owned, true)
			if err != nil {
				t.Fatal(err)
			}
			pr.Deployment().Start()
			clk.RunUntil(pr.DurationUS())
			merged := scenario.MergeClusterReports(spec, true, []*scenario.WorkerReport{pr.WorkerReport("w0")})
			if merged.Transport == nil || *merged.Transport != (scenario.TransportReport{}) {
				t.Errorf("a netsim partition has no transport counters, merge reports %+v", merged.Transport)
			}
			merged.Transport = nil
			got, err := merged.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("merge of the one fragment differs from Run's report:\n--- merge\n%s\n--- run\n%s", got, want)
			}
		})
	}
}

// checkTimeline asserts the properties every consumer of a timeline relies
// on and returns its heal baseline.
func checkTimeline(t *testing.T, s *scenario.Spec, quick bool) int64 {
	t.Helper()
	horizon := scenario.DurationUS(s, quick)
	last := scenario.LastFaultHealUS(s, quick)
	maxHeal, prev := int64(-1), 0
	for _, ev := range scenario.Timeline(s, quick) {
		if ev.Fault < prev {
			t.Fatalf("%s: event of fault %d after one of fault %d: not in spec order", s.Name, ev.Fault, prev)
		}
		prev = ev.Fault
		if at := int64(s.Faults[ev.Fault].AtS * 1e6); at >= horizon || ev.AtUS < at {
			t.Fatalf("%s: event %+v from a fault at %dµs, horizon %dµs", s.Name, ev, at, horizon)
		}
		up := ev.Kind == scenario.EvRestart || ev.Kind == scenario.EvReconnect ||
			ev.Kind == scenario.EvResume || ev.Kind == scenario.EvUnblock
		if ev.Heals != up {
			t.Fatalf("%s: event %+v: Heals=%v", s.Name, ev, ev.Heals)
		}
		if ev.Heals && ev.AtUS <= horizon {
			if ev.AtUS > last {
				t.Fatalf("%s: heal at %dµs is past LastFaultHealUS %dµs", s.Name, ev.AtUS, last)
			}
			maxHeal = max(maxHeal, ev.AtUS)
		}
	}
	if maxHeal != last {
		t.Fatalf("%s: latest in-horizon heal %dµs, LastFaultHealUS %dµs", s.Name, maxHeal, last)
	}
	return last
}

// TestTimelineProperties runs checkTimeline over generated specs (both
// horizons) and pins the heal baseline to what a run reports.
func TestTimelineProperties(t *testing.T) {
	var specs []*scenario.Spec
	for seed := int64(1); seed <= 300; seed++ {
		specs = append(specs, fuzz.GenSpec(seed))
		c := fuzz.GenClusterSpec(seed, 3)
		checkTimeline(t, c, false)
		checkTimeline(t, c, true)
	}
	heals := make([]int64, len(specs))
	for i, s := range specs {
		checkTimeline(t, s, false)
		heals[i] = checkTimeline(t, s, true)
	}
	reps, err := scenario.RunMany(specs, scenario.Options{Quick: true, SkipConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		want := 0.0
		if heals[i] >= 0 {
			want = float64(heals[i]) / 1e6
		}
		if got := rep.Stabilization.LastFaultHealS; got != want {
			t.Errorf("%s: report says last_fault_heal_s %v, timeline %v", specs[i].Name, got, want)
		}
	}
}

// TestTimelineDefaultsAndHorizon pins the two rules only the timeline
// knows: a flap with count and duration_s unset is 3 cycles down for half
// the period, and a fault whose onset is at or past the horizon yields
// nothing — while one that fires keeps its events past the horizon.
func TestTimelineDefaultsAndHorizon(t *testing.T) {
	s := fuzz.GenSpec(1)
	s.DurationS, s.QuickDurationS = 30, 10
	node := s.Nodes[0].Name
	s.Faults = []scenario.FaultSpec{
		{Kind: "flap", Node: node, AtS: 4, PeriodS: 3},
		{Kind: "crash", Node: node, AtS: 10, DurationS: 1},
		{Kind: "disconnect", Source: s.Sources[0].Name, AtS: 30, DurationS: 1},
		{Kind: "restart", Node: node, Replica: 1, AtS: 30},
	}
	two := 2
	s.Nodes[0].Replicas = &two
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cluster plan does not depend on the horizon: a replica whose only
	// fault never fires still gets its dedicated worker.
	if got := scenario.FaultTargets(s); len(got) != 2 {
		t.Errorf("FaultTargets = %v, want both replicas of %s", got, node)
	}
	flap := []int64{4e6, 5.5e6, 7e6, 8.5e6, 10e6, 11.5e6}
	for _, quick := range []bool{false, true} {
		evs := scenario.Timeline(s, quick)
		want := len(flap)
		if !quick {
			want += 2 // the crash at 10s fires only on the 30s horizon
		}
		if len(evs) != want {
			t.Fatalf("quick=%v: %d events, want %d: %+v", quick, len(evs), want, evs)
		}
		for i, at := range flap {
			kind := scenario.EvCrash
			if i%2 == 1 {
				kind = scenario.EvRestart
			}
			if ev := evs[i]; ev.AtUS != at || ev.Kind != kind || ev.Fault != 0 || ev.Node != node {
				t.Errorf("quick=%v: flap event %d = %+v, want kind %d at %dµs", quick, i, ev, kind, at)
			}
		}
	}
	// On the 10s horizon the third restart (11.5s) never happens: the heal
	// baseline is the second.
	if got := scenario.LastFaultHealUS(s, true); got != 8.5e6 {
		t.Errorf("quick heal baseline %dµs, want 8500000", got)
	}
	if got := scenario.LastFaultHealUS(s, false); got != 11.5e6 {
		t.Errorf("heal baseline %dµs, want 11500000", got)
	}
}
