package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root is the catalog, nothing more and
// nothing less. Regenerate it with: bash bench/run.sh -benchmark-json
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with `bash bench/run.sh -benchmark-json > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(keys, " ") != want {
		t.Errorf("BENCHMARK.json keys = %v, want exactly %s", keys, want)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// The contract's limits on names, units, counts and bounds.
func TestCatalogWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		name("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s with unit s, better lower")
	}
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Def == "" {
			t.Errorf("%s: no definition", m.Name)
		}
	}
	for _, m := range perLayer {
		name("metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// Every metric and workload name the benchmark prints is in the catalog and
// every catalog name is printed: by the result line the driver reads, in
// both modes, and by the -json document.
func TestPrintedNamesMatchCatalog(t *testing.T) {
	res := newResult(&workloads[0], 7)
	res.Attempted = 10
	for _, layers := range []bool{false, true} {
		var line struct {
			Correct   *bool                      `json:"correct"`
			Attempted *uint64                    `json:"attempted"`
			Failed    *uint64                    `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(contractLine(res, layers)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("result line: %v", err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("result line lacks correct, attempted or failed")
		}
		want := metricsOf(layers)
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: result line has %d metrics, catalog %d", layers, len(line.Metrics), len(want))
		}
		for _, m := range want {
			raw, ok := line.Metrics[m.Name]
			if !ok {
				t.Errorf("trace=%v: result line lacks %s", layers, m.Name)
				continue
			}
			var v struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(raw, &v); err != nil || v.Value == nil || v.Unit != m.Unit {
				t.Errorf("trace=%v: %s = %s, want a value with unit %s", layers, m.Name, raw, m.Unit)
			}
		}
	}
	for i := range workloads {
		jw := jsonOf(&workloads[i], res, res)
		if jw.Name != workloads[i].Name {
			t.Errorf("-json workload name %q", jw.Name)
		}
		if len(jw.EndToEnd) != len(endToEnd) || len(jw.PerLayer) != len(perLayer) {
			t.Errorf("-json prints %d end-to-end and %d per-layer metrics, catalog %d and %d",
				len(jw.EndToEnd), len(jw.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			if _, ok := jw.EndToEnd[m.Name]; !ok {
				t.Errorf("-json lacks end-to-end metric %s", m.Name)
			}
		}
		for _, m := range perLayer {
			if _, ok := jw.PerLayer[m.Name]; !ok {
				t.Errorf("-json lacks per-layer metric %s", m.Name)
			}
		}
	}
}

// A run that sets a metric the catalog does not list would print nothing
// for it: the run functions may only write catalog names.
func TestZeroLayersCoversCatalog(t *testing.T) {
	res := newResult(&workloads[0], 7)
	zeroLayers(res)
	setProbeMetrics(res, &probeSet{st: map[string]probeStat{}})
	setTraceMetrics(res, newTracer(), 1, 1)
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.Name] = true
	}
	for k := range res.Metrics {
		if !listed[k] {
			t.Errorf("metric %q is written but not in the catalog", k)
		}
	}
}
