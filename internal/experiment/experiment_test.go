package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The experiment tests run the reduced (Quick) sweeps and assert the
// paper's qualitative shapes — the same invariants the benchmarks enforce,
// kept here so `go test ./...` alone validates the reproduction.

var q = Options{Quick: true}

func TestFig11aShape(t *testing.T) {
	t.Parallel()
	r := Fig11(true, q)
	if !r.ConsistencyOK {
		t.Fatalf("fig11a eventual consistency failed: %s", r.AuditReason)
	}
	if r.Reconciliations != 1 || r.RecDones != 1 || r.Undos != 1 {
		t.Fatalf("overlapping failures must correct once: %+v", r)
	}
	if r.Tentative == 0 {
		t.Fatal("fig11a should produce tentative output")
	}
	if len(r.Series) == 0 {
		t.Fatal("no series recorded")
	}
}

func TestFig11bShape(t *testing.T) {
	t.Parallel()
	r := Fig11(false, q)
	if !r.ConsistencyOK {
		t.Fatalf("fig11b eventual consistency failed: %s", r.AuditReason)
	}
	if r.Reconciliations != 2 || r.RecDones != 2 {
		t.Fatalf("failure-during-recovery must correct twice: %+v", r)
	}
}

func TestFig11CSV(t *testing.T) {
	t.Parallel()
	r := Fig11(true, q)
	var buf bytes.Buffer
	r.TraceCSV(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "time_ms,seq,type\n") {
		t.Fatalf("csv header wrong: %q", out[:40])
	}
	if strings.Count(out, "\n") < 100 {
		t.Fatal("csv suspiciously short")
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	r := Table3(q)
	if len(r.Procnew) != len(r.Durations) {
		t.Fatal("ragged result")
	}
	// Availability bound held for every duration.
	for i, p := range r.Procnew {
		if p > 3.0 {
			t.Fatalf("bound broken at %ds: %.2fs", r.Durations[i], p)
		}
		if !r.ConsistencyOK[i] {
			t.Fatalf("consistency failed at %ds", r.Durations[i])
		}
	}
	// Short failures heal inside the suspension; the rest are flat.
	if r.Procnew[0] >= r.Procnew[1] {
		t.Fatalf("2s failure should be cheaper than the suspension: %v", r.Procnew)
	}
	last := r.Procnew[len(r.Procnew)-1]
	if diff := last - r.Procnew[1]; diff > 0.1 || diff < -0.1 {
		t.Fatalf("Procnew must be flat beyond the suspension: %v", r.Procnew)
	}
}

func TestFig13Shapes(t *testing.T) {
	t.Parallel()
	r := Fig13(q)
	last := len(r.Durations) - 1
	idx := map[string]int{}
	for i, v := range r.Variants {
		idx[v.Name] = i
	}
	// Everything masks the 2s failure.
	for i, v := range r.Variants {
		if r.Ntentative[i][0] != 0 {
			t.Fatalf("%s failed to mask the 2s failure: %d", v.Name, r.Ntentative[i][0])
		}
	}
	// Non-suspend variants keep the bound at every duration.
	for _, name := range []string{"Process & Process", "Delay & Process", "Process & Delay", "Delay & Delay"} {
		for di, p := range r.Procnew[idx[name]] {
			if p > 3.0 {
				t.Fatalf("%s broke the bound at %ds: %.2fs", name, r.Durations[di], p)
			}
		}
	}
	// Suspend variants break it for long failures.
	if r.Procnew[idx["Process & Suspend"]][last] <= 3.0 {
		t.Fatal("Process & Suspend should break the bound once reconciliation outlasts D")
	}
	if r.Procnew[idx["Delay & Suspend"]][last] <= r.Procnew[idx["Process & Suspend"]][last] {
		t.Fatal("Delay & Suspend must be strictly worse than Process & Suspend")
	}
	// Delaying reduces inconsistency vs the baseline.
	pp := r.Ntentative[idx["Process & Process"]][last]
	for _, name := range []string{"Delay & Process", "Process & Delay", "Delay & Delay"} {
		if r.Ntentative[idx[name]][last] >= pp {
			t.Fatalf("%s should beat Process & Process: %d ≥ %d", name, r.Ntentative[idx[name]][last], pp)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	t.Parallel()
	r := Fig15(q)
	n := len(r.Depths) - 1
	// Delay & Delay grows ≈ 0.9·D per node.
	if n > 0 {
		slope := (r.DelayDelay[n] - r.DelayDelay[0]) / float64(r.Depths[n]-r.Depths[0])
		if slope < 1.2 || slope > 2.4 {
			t.Fatalf("D&D slope %.2f s/node, want ≈ 1.8", slope)
		}
		ppSlope := (r.ProcProc[n] - r.ProcProc[0]) / float64(r.Depths[n]-r.Depths[0])
		if ppSlope > 0.8 {
			t.Fatalf("P&P slope %.2f s/node, want small", ppSlope)
		}
	}
}

func TestFig16And18Shapes(t *testing.T) {
	t.Parallel()
	short := Fig16(q, 5).Panels[0]
	n := len(short.Depths) - 1
	if short.DelayDelay[n] >= short.ProcProc[n] {
		t.Fatal("short failures: delaying must reduce tentative tuples with depth")
	}
	long := Fig18(q).Panels[0]
	rel := (long.ProcProc[n] - long.DelayDelay[n]) / long.ProcProc[n]
	if rel > 0.25 {
		t.Fatalf("60s failures: delaying gains should fade, got %.0f%%", rel*100)
	}
}

func TestFig19Fig20Shapes(t *testing.T) {
	t.Parallel()
	r := Fig19(q)
	if r.TentWholePP[0] != 0 {
		t.Fatalf("whole-delay must mask the 5s failure: %d", r.TentWholePP[0])
	}
	if r.TentUniformPP[0] == 0 {
		t.Fatal("uniform P&P must NOT mask the 5s failure")
	}
	for i, p := range r.ProcWholePP {
		if p > 8.0 {
			t.Fatalf("whole-delay broke X=8s at %ds: %.2f", r.FailureSecs[i], p)
		}
	}
}

func TestTable4Table5Shapes(t *testing.T) {
	t.Parallel()
	for _, r := range []OverheadResult{Table4(q), Table5(q)} {
		if r.Rows[0].ParamMs != 0 {
			t.Fatal("baseline column missing")
		}
		if r.Rows[0].Tuples == 0 {
			t.Fatal("baseline produced nothing")
		}
		prev := -1.0
		for _, row := range r.Rows[1:] {
			if row.Avg <= prev {
				t.Fatalf("average latency must grow with the parameter: %+v", r.Rows)
			}
			prev = row.Avg
			if row.Max < row.Avg || row.Avg < row.Min {
				t.Fatalf("inconsistent stats: %+v", row)
			}
		}
	}
}

func TestSwitchoverShape(t *testing.T) {
	t.Parallel()
	r := Switchover(q)
	if r.Tentative != 0 {
		t.Fatalf("crash switchover must be masked, got %d tentative", r.Tentative)
	}
	if !r.ConsistencyOK {
		t.Fatal("switchover broke the stream")
	}
	if r.GapMs <= r.SteadyGapMs {
		t.Fatal("crash gap should exceed the steady-state gap")
	}
	if r.GapMs > 1000 {
		t.Fatalf("switchover took too long: %.0f ms", r.GapMs)
	}
}

func TestAblateBuffersShape(t *testing.T) {
	t.Parallel()
	r := AblateBuffers(q)
	if r.Rows[0].NewDuringFailure == 0 || r.Rows[1].NewDuringFailure == 0 {
		t.Fatal("unbounded and slide must preserve availability")
	}
	if r.Rows[2].NewDuringFailure != 0 {
		t.Fatal("block-on-full must sacrifice availability")
	}
	if r.Rows[1].Truncated == 0 {
		t.Fatal("slide mode never truncated")
	}
	if !r.Rows[1].RecentWindowOK {
		t.Fatal("slide mode must keep the recent window consistent (§8.1)")
	}
}

func TestAblateTentativeBoundariesShape(t *testing.T) {
	t.Parallel()
	r := AblateTentativeBoundaries(q)
	n := len(r.Depths) - 1
	if r.With[n] >= r.Without[n] {
		t.Fatalf("tentative boundaries should cut deep-chain latency: %.2f ≥ %.2f", r.With[n], r.Without[n])
	}
	if r.TentWith[n] != r.TentWithout[n] {
		t.Fatalf("tentative boundaries must not change Ntentative: %d vs %d", r.TentWith[n], r.TentWithout[n])
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	Table3(Options{Quick: true}).Print(&buf)
	Fig15(Options{Quick: true}).Print(&buf)
	Fig19(Options{Quick: true}).Print(&buf)
	Table4(Options{Quick: true}).Print(&buf)
	Switchover(q).Print(&buf)
	AblateBuffers(Options{Quick: true}).Print(&buf)
	AblateTentativeBoundaries(Options{Quick: true}).Print(&buf)
	Fig11(true, q).Print(&buf)
	out := buf.String()
	for _, want := range []string{"Table III", "chain depth", "X = 8 s", "Table IV", "switchover", "buffer management", "tentative boundaries", "Fig. 11(a)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q", want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the experiment golden files")

// result is what every experiment returns: a printable table or series.
type result interface{ Print(io.Writer) }

// golden renders a result as its golden-file text: the Print output, then
// the SHA-256 of the JSON-rendered result. The hash pins every field —
// including Fig. 11's series of more than 10 000 points, which the file
// does not spell out.
func golden(r result) ([]byte, error) {
	js, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	r.Print(&buf)
	fmt.Fprintf(&buf, "json sha256 %x\n", sha256.Sum256(js))
	return buf.Bytes(), nil
}

// TestExperimentsBothPlanes pins every experiment's full result struct
// across the two data planes and against its golden file: the staged batch
// plane and the per-tuple reference must both reproduce
// testdata/<name>.golden byte for byte (the Print text plus the SHA-256 of
// the JSON result). This is the experiment-level analogue of the scenario
// golden proof — any change that moved a single delivered tuple, latency,
// or counter anywhere in §5-§8 would show here. The golden files are not
// regenerated when the way an experiment builds its deployment changes:
// the numbers must not move. After an intentional behaviour change:
//
//	go test ./internal/experiment -run TestExperimentsBothPlanes -update
func TestExperimentsBothPlanes(t *testing.T) {
	t.Parallel()
	batch := Options{Quick: true}
	ref := Options{Quick: true, PerTuple: true}
	for _, tc := range []struct {
		name string
		run  func(Options) result
	}{
		{"fig11a", func(o Options) result { return Fig11(true, o) }},
		{"fig11b", func(o Options) result { return Fig11(false, o) }},
		{"table3", func(o Options) result { return Table3(o) }},
		{"fig13", func(o Options) result { return Fig13(o) }},
		{"fig15", func(o Options) result { return Fig15(o) }},
		{"fig16", func(o Options) result { return Fig16(o, 5) }},
		{"fig19", func(o Options) result { return Fig19(o) }},
		{"table4", func(o Options) result { return Table4(o) }},
		{"table5", func(o Options) result { return Table5(o) }},
		{"switchover", func(o Options) result { return Switchover(o) }},
		{"ablate-buffers", func(o Options) result { return AblateBuffers(o) }},
		{"ablate-tb", func(o Options) result { return AblateTentativeBoundaries(o) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b, err := golden(tc.run(batch))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(b, want) {
				t.Fatalf("batch plane drifted from %s\n--- got ---\n%s--- want ---\n%s", path, b, want)
			}
			p, err := golden(tc.run(ref))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("per-tuple plane drifted from %s\n--- got ---\n%s--- want ---\n%s", path, p, want)
			}
		})
	}
}

func TestVariantsOrder(t *testing.T) {
	t.Parallel()
	vs := Variants()
	if len(vs) != 6 || vs[0].Name != "Process & Process" || vs[3].Name != "Delay & Delay" {
		t.Fatalf("variants wrong: %+v", vs)
	}
}
