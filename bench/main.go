// Command bench is the repository's one benchmark: four generated workloads
// over the whole data plane, end-to-end metrics a user of the system feels
// and per-layer metrics that say where a tuple's time goes. README.md has
// every definition; catalog.go is the list.
//
//	bash bench/run.sh                                  # all four workloads, both modes
//	bash bench/run.sh -workload wire_steady -trace 1   # one workload, per-layer metrics
//	bash bench/run.sh -repeat-check                    # two sets of runs must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// spansOut, when set, is the file the traced run's spans are written to.
var spansOut string

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run (default: all four, end-to-end then per-layer)")
		seed        = flag.Int64("seed", 7, "workload generator seed")
		seconds     = flag.Int("seconds", runSeconds, "wall seconds one workload measures")
		trace       = flag.String("trace", "", "0: end-to-end metrics with tracing off; 1: per-layer metrics from the probes and one traced run (default: both)")
		asJSON      = flag.Bool("json", false, "print one JSON document with every metric, by name with unit")
		repeatCheck = flag.Bool("repeat-check", false, "run the end-to-end suite twice; fail if a pair of medians disagrees by more than the metric's bound")
		list        = flag.Bool("list", false, "print the workloads and every metric's definition and exit")
		dump        = flag.Bool("dump-spec", false, "print the generated spec of -workload as JSON and exit")
		benchJSON   = flag.Bool("benchmark-json", false, "print the catalog as BENCHMARK.json and exit")
	)
	flag.StringVar(&spansOut, "spans", "", "write the traced run's spans to this CSV file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace takes 0 or 1, got %q", *trace)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	budget := time.Duration(*seconds) * time.Second

	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		selected = []Workload{*w}
	}
	switch {
	case *benchJSON:
		os.Stdout.Write(benchmarkJSON())
		return
	case *list:
		printCatalog(os.Stdout)
		return
	case *dump:
		if *workload == "" {
			fatalf("-dump-spec needs -workload")
		}
		spec, err := Generate(*workload, *seed, 0)
		if err != nil {
			fatalf("%v", err)
		}
		b, _ := json.MarshalIndent(spec, "", "  ")
		fmt.Println(string(b))
		return
	case *repeatCheck:
		os.Exit(repeatChecked(selected, *seed, budget))
	}

	// The driver's contract: one workload, one mode, the result object as
	// the last line of standard output; everything for people goes to
	// standard error.
	if *workload != "" && *trace != "" {
		res := measure1(&selected[0], *seed, budget, *trace == "1")
		printResult(os.Stderr, res, *trace == "1")
		fmt.Println(contractLine(res, *trace == "1"))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	ok := true
	var doc []jsonWorkload
	for i := range selected {
		w := &selected[i]
		var e2e, layers *Result
		if *trace != "1" {
			e2e = measure1(w, *seed, budget, false)
			ok = ok && e2e.Correct
		}
		if *trace != "0" {
			layers = measure1(w, *seed, budget, true)
			ok = ok && layers.Correct
		}
		if *asJSON {
			doc = append(doc, jsonOf(w, e2e, layers))
			continue
		}
		for _, r := range []*Result{e2e, layers} {
			if r != nil {
				printResult(os.Stdout, r, r == layers)
			}
		}
	}
	if *asJSON {
		b, _ := json.MarshalIndent(map[string]any{"seed": *seed, "seconds": *seconds, "workloads": doc}, "", "  ")
		fmt.Println(string(b))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// measure1 runs one workload in one mode.
func measure1(w *Workload, seed int64, budget time.Duration, layers bool) *Result {
	switch {
	case w.Wire && layers:
		return runWireLayers(w, seed, budget)
	case w.Wire:
		return runWire(w, seed, budget)
	case layers:
		return runVirtualLayers(w, seed, budget)
	}
	return runVirtual(w, seed, budget)
}

// metricsOf lists the catalog section a mode reports.
func metricsOf(layers bool) []Metric {
	if layers {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the result object the driver reads: exactly the keys
// correct, attempted, failed and metrics, with every metric of the mode.
func contractLine(res *Result, layers bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range metricsOf(layers) {
		v := res.Metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	attempted := res.Attempted
	if attempted == 0 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
	return string(b)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N, Q1 and Q3 describe the samples behind a timing's median.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

type jsonWorkload struct {
	Name      string                `json:"name"`
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	EndToEnd  map[string]jsonMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]jsonMetric `json:"per_layer,omitempty"`
	Stack     []stackRow            `json:"stack,omitempty"`
	Info      map[string]float64    `json:"info,omitempty"`
}

func jsonOf(w *Workload, e2e, layers *Result) jsonWorkload {
	jw := jsonWorkload{Name: w.Name, Correct: true, Info: map[string]float64{}}
	section := func(res *Result, ms []Metric) map[string]jsonMetric {
		jw.Correct = jw.Correct && res.Correct
		jw.Attempted += res.Attempted
		jw.Failed += res.Failed
		jw.Failures = append(jw.Failures, res.Failures...)
		for k, v := range res.Info {
			jw.Info[k] = v
		}
		out := map[string]jsonMetric{}
		for _, m := range ms {
			jm := jsonMetric{Value: res.Metrics[m.Name], Unit: m.Unit}
			if s := res.Samples[m.Name]; len(s) > 0 {
				sum := summarize(s)
				jm.N, jm.Q1, jm.Q3 = sum.N, sum.Q1, sum.Q3
			}
			out[m.Name] = jm
		}
		return out
	}
	if e2e != nil {
		jw.EndToEnd = section(e2e, endToEnd)
	}
	if layers != nil {
		jw.PerLayer = section(layers, perLayer)
		jw.Stack = layers.Stack
	}
	return jw
}

// printResult is the human report of one workload in one mode: every metric
// by name with unit, the quartiles and sample count beside every timing,
// the failures, and with -trace 1 the stacked table.
func printResult(out io.Writer, res *Result, layers bool) {
	mode := "end to end, tracing off"
	if layers {
		mode = "per layer: probes and one traced run"
	}
	fmt.Fprintf(out, "\n== %s (seed %d) — %s\n", res.Workload, res.Seed, mode)
	verdict := "correct"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(out, "   %s: %d operations attempted, %d failed\n", verdict, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "   FAIL: %s\n", f)
	}
	for _, m := range metricsOf(layers) {
		line := fmt.Sprintf("   %-38s %14.6g %-12s", m.Name, res.Metrics[m.Name], m.Unit)
		if s := res.Samples[m.Name]; len(s) > 0 {
			sum := summarize(s)
			line += fmt.Sprintf(" samples: q1 %.6g  median %.6g  q3 %.6g  n=%d", sum.Q1, sum.Median, sum.Q3, sum.N)
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	for _, k := range sortedKeys(res.Info) {
		if _, listed := res.Metrics[k]; !listed {
			fmt.Fprintf(out, "   (%s = %.6g)\n", k, res.Info[k])
		}
	}
	if len(res.Stack) > 0 {
		fmt.Fprintf(out, "\n   where does a tuple's time go — probes scaled to the whole run, against the untraced end-to-end time\n")
		fmt.Fprintf(out, "   %-24s %12s %-6s %10s %10s %7s %9s\n", "layer", "units", "", "ns/unit", "total ms", "share", "allocs/u")
		for _, r := range res.Stack {
			fmt.Fprintf(out, "   %-24s %12.0f %-6s %10.1f %10.1f %6.1f%% %9.3f\n", r.Layer, r.Units, r.UnitName, r.NSPer, r.TotalMS, 100*r.Share, r.Allocs)
		}
		fmt.Fprintf(out, "   %-24s %52.1f%%  (stack.coverage; indented rows are inside engine)\n", "sum of layers", 100*res.Metrics["stack.coverage"])
	}
}

func printCatalog(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Fprintln(out, "\nend-to-end metrics (reported with -trace 0, on every workload):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-24s %-9s %-6s bound %2.0f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Def)
	}
	fmt.Fprintln(out, "\nper-layer metrics (reported with -trace 1; 0 where a layer does not apply):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-38s %-12s %-6s %s\n", m.Name, m.Unit, m.Better, m.Def)
	}
}

// repeatChecked runs the end-to-end suite twice and prints, per metric and
// workload, both medians, their relative difference and the bound. It
// returns the exit code: non-zero when a check failed or a pair disagrees
// by more than its bound in the worsening direction or the other.
func repeatChecked(selected []Workload, seed int64, budget time.Duration) int {
	code := 0
	var sets [2][]*Result
	for round := range sets {
		for i := range selected {
			res := measure1(&selected[i], seed, budget, false)
			if !res.Correct {
				printResult(os.Stderr, res, false)
				code = 1
			}
			sets[round] = append(sets[round], res)
		}
	}
	fmt.Printf("%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range selected {
		a, b := sets[0][i], sets[1][i]
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			mark := ""
			if math.Abs(diff) > m.Bound {
				mark = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", selected[i].Name, m.Name, va, vb, 100*diff, 100*m.Bound, mark)
		}
		for _, k := range []string{"processed_tuples_per_repetition", "protocol.procnew_max_s", "protocol.stabilization_s", "protocol.tentative_tuples"} {
			va, oka := a.Info[k]
			vb := b.Info[k]
			if !oka {
				continue
			}
			mark := ""
			if va != vb {
				mark = "  DISAGREE (must repeat exactly)"
				code = 1
			}
			fmt.Printf("%-16s %-24s %14.9g %14.9g %9s %7s%s\n", selected[i].Name, k, va, vb, "", "exact", mark)
		}
	}
	return code
}
