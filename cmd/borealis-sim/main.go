// Command borealis-sim runs the paper's experiments and prints the tables
// and figure series of the evaluation (§5-§7), and executes declarative
// scenario files (arbitrary topologies + failure schedules) from the
// scenarios/ directory or anywhere else — on the deterministic simulator,
// paced against the wall clock, or swept across a parameter range.
//
// Usage:
//
//	borealis-sim [-quick] <experiment>...
//	borealis-sim [-quick] all
//	borealis-sim [-quick] [-json] [-no-audit] scenario <file.json>...
//	borealis-sim [-quick] [-json] [-no-audit] [-speed N] realtime <file.json>...
//	borealis-sim [-quick] [-json] [-no-audit] [-parallel N] -field F -from A -to B [-steps N] sweep <file.json>
//	borealis-sim ... -field F -from A -to B -field2 G -from2 C -to2 D [-steps2 M] [-metric M] sweep <file.json>
//	borealis-sim ... -field F -from A -to B [-steps N] -repeat R [-metric M] sweep <file.json>
//	borealis-sim [-json] [-parallel N] [-seed S] [-batch N] [-batches N] [-budget D] [-mutate DIRS] [-differential] [-checkpoint FILE] [-out DIR] [-fail-on-finding] soak
//
// Adding -field2 turns a sweep into a two-dimensional grid (Steps ×
// Steps2 independent runs, e.g. the paper's Fig. 19 delay × duration
// surface) rendered as a matrix of one report metric (-metric); -repeat
// instead runs every swept value R times with derived seeds and reports
// min/mean/max of -metric per value. Both fan their runs across
// -parallel worker goroutines with byte-identical output regardless of
// worker count.
//
// The soak subcommand turns the simulator into a crash-consistency
// fuzzer: it generates random scenarios from -seed (topology DAGs,
// workload shapes, fault schedules), runs each through the Definition 1
// audit plus the structural oracles of internal/fuzz, shrinks every
// failing spec to a minimal reproducer, deduplicates findings by oracle
// class + shrunk-spec hash, and prints a deterministic summary (identical
// across repetitions and -parallel counts). `-batch N -batches 1` is one
// fixed campaign of N generated specs. Longer campaigns are time-budgeted
// (-budget) or batch-capped (-batches), interleave fresh generations with
// mutants of the regression corpus and curated specs (-mutate),
// optionally replay every clean run under the differential oracles
// (-differential), and checkpoint state after every batch (-checkpoint)
// so an interrupted soak resumes deterministically: the resumed
// campaign's state is byte-identical to an uninterrupted one. With -out,
// minimized specs are written there as JSON for triage; the keepers
// graduate into scenarios/corpus/. See docs/FUZZING.md.
//
// Experiments: fig11a fig11b table3 fig13 fig15 fig16 fig18 fig19 fig20
// table4 table5 switchover ablate-buffers ablate-tb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"borealis/internal/experiment"
	"borealis/internal/fuzz"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
)

var experiments = []struct {
	name string
	desc string
	run  func(experiment.Options, io.Writer)
}{
	{"fig11a", "eventual consistency under overlapping failures", func(o experiment.Options, w io.Writer) {
		experiment.Fig11(true, o).Print(w)
	}},
	{"fig11b", "eventual consistency with a failure during recovery", func(o experiment.Options, w io.Writer) {
		experiment.Fig11(false, o).Print(w)
	}},
	{"table3", "Procnew vs failure duration (replicated node + SJoin)", func(o experiment.Options, w io.Writer) {
		experiment.Table3(o).Print(w)
	}},
	{"fig13", "six delay-policy variants: Procnew and Ntentative", func(o experiment.Options, w io.Writer) {
		experiment.Fig13(o).Print(w)
	}},
	{"fig15", "Procnew vs chain depth (30 s failure)", func(o experiment.Options, w io.Writer) {
		experiment.Fig15(o).Print(w)
	}},
	{"fig16", "Ntentative vs chain depth (5/10/15/30 s failures)", func(o experiment.Options, w io.Writer) {
		experiment.Fig16(o).Print(w)
	}},
	{"fig18", "Ntentative vs chain depth (60 s failure)", func(o experiment.Options, w io.Writer) {
		experiment.Fig18(o).Print(w)
	}},
	{"fig19", "delay assignment: Procnew (whole vs uniform)", func(o experiment.Options, w io.Writer) {
		experiment.Fig19(o).Print(w)
	}},
	{"fig20", "delay assignment: Ntentative (same sweep as fig19)", func(o experiment.Options, w io.Writer) {
		experiment.Fig19(o).Print(w)
	}},
	{"table4", "serialization overhead vs bucket size", func(o experiment.Options, w io.Writer) {
		experiment.Table4(o).Print(w)
	}},
	{"table5", "serialization overhead vs boundary interval", func(o experiment.Options, w io.Writer) {
		experiment.Table5(o).Print(w)
	}},
	{"switchover", "crash switchover gap (§5.1)", func(o experiment.Options, w io.Writer) {
		experiment.Switchover(o).Print(w)
	}},
	{"ablate-buffers", "§8.1 buffer-management strategies", func(o experiment.Options, w io.Writer) {
		experiment.AblateBuffers(o).Print(w)
	}},
	{"ablate-tb", "footnote-5 tentative boundaries vs per-node waits", func(o experiment.Options, w io.Writer) {
		experiment.AblateTentativeBoundaries(o).Print(w)
	}},
}

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps (seconds instead of minutes)")
	asJSON := flag.Bool("json", false, "scenario mode: emit the canonical JSON report")
	noAudit := flag.Bool("no-audit", false, "scenario mode: skip the consistency reference run")
	speed := flag.Float64("speed", 100, "realtime mode: time-scale factor (1 = true real time)")
	field := flag.String("field", "", "sweep mode: scenario field to vary (delay|rate|fault_duration)")
	from := flag.String("from", "", "sweep mode: range start (duration like 1s, or a number)")
	to := flag.String("to", "", "sweep mode: range end")
	steps := flag.Int("steps", 4, "sweep mode: number of evenly spaced points")
	field2 := flag.String("field2", "", "grid mode: second field to vary (turns the sweep into a 2-D grid)")
	from2 := flag.String("from2", "", "grid mode: second-field range start")
	to2 := flag.String("to2", "", "grid mode: second-field range end")
	steps2 := flag.Int("steps2", 4, "grid mode: second-field point count")
	metric := flag.String("metric", "tentative", "grid/repeat mode: report metric rendered")
	parallel := flag.Int("parallel", 1, "sweep/grid/soak: concurrent virtual runs (0 = one per core, 1 = serial)")
	repeat := flag.Int("repeat", 1, "sweep mode: run each value N times with derived seeds (min/mean/max per metric)")
	seed := flag.Int64("seed", 1, "soak mode: master seed for scenario generation")
	outDir := flag.String("out", "", "soak mode: directory for minimized failing specs")
	tracePath := flag.String("trace", "", "scenario mode: write the per-replica protocol event trace to FILE (- = stderr)")
	genSeed := flag.Int64("gen-seed", 0, "scenario mode: run the fuzzer-generated spec for this spec seed instead of a file")
	failOnFinding := flag.Bool("fail-on-finding", false, "soak mode: exit non-zero when any finding is reported")
	budget := flag.Duration("budget", 0, "soak mode: wall-clock budget (e.g. 10m); 0 = -batches decides")
	batchRuns := flag.Int("batch", 32, "soak mode: specs per batch (the checkpoint granularity)")
	batches := flag.Int("batches", 0, "soak mode: total batch cap, counting checkpointed batches (0 = -budget decides)")
	checkpoint := flag.String("checkpoint", "", "soak mode: campaign state file for interrupt/resume")
	mutateDirs := flag.String("mutate", "", "soak mode: comma-separated spec directories to mutate (e.g. scenarios/corpus,scenarios)")
	differential := flag.Bool("differential", false, "soak mode: also run the differential oracles on runs the normal oracles pass")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "worker":
		runWorkerCmd(args[1:])
		return
	case "cluster":
		runClusterCmd(args[1:])
		return
	case "bench-net":
		runBenchNet(args[1:])
		return
	case "scenario":
		if len(args) < 2 && *genSeed == 0 {
			fmt.Fprintf(os.Stderr, "usage: borealis-sim [-quick] [-json] [-no-audit] [-trace FILE] scenario <file.json>...\n")
			fmt.Fprintf(os.Stderr, "       borealis-sim ... [-trace FILE] -gen-seed S scenario\n")
			os.Exit(2)
		}
		opts := scenario.Options{Quick: *quick, SkipConsistency: *noAudit}
		closeTrace := installTrace(&opts, *tracePath)
		runScenarios(args[1:], *genSeed, opts, *asJSON, nil)
		closeTrace()
		return
	case "realtime":
		if len(args) < 2 {
			fmt.Fprintf(os.Stderr, "usage: borealis-sim [-quick] [-json] [-no-audit] [-speed N] realtime <file.json>...\n")
			os.Exit(2)
		}
		mk := func() runtime.Runtime { return runtime.NewWall(*speed) }
		runScenarios(args[1:], 0, scenario.Options{Quick: *quick, SkipConsistency: *noAudit}, *asJSON, mk)
		return
	case "sweep":
		if len(args) != 2 || *field == "" || *from == "" || *to == "" {
			fmt.Fprintf(os.Stderr, "usage: borealis-sim [-quick] [-json] [-no-audit] [-parallel N] -field F -from A -to B [-steps N] [-field2 G -from2 C -to2 D [-steps2 M] [-metric M]] [-repeat R] sweep <file.json>\n")
			os.Exit(2)
		}
		opts := scenario.Options{Quick: *quick, SkipConsistency: *noAudit, Parallelism: *parallel}
		if *field2 != "" {
			if *from2 == "" || *to2 == "" {
				fmt.Fprintf(os.Stderr, "borealis-sim: -field2 needs -from2 and -to2\n")
				os.Exit(2)
			}
			if *repeat > 1 {
				fmt.Fprintf(os.Stderr, "borealis-sim: -repeat combines with one-dimensional sweeps, not grids\n")
				os.Exit(2)
			}
			runGrid(args[1],
				sweepAxis{*field, *from, *to, *steps},
				sweepAxis{*field2, *from2, *to2, *steps2},
				*metric, opts, *asJSON)
			return
		}
		if *repeat > 1 {
			runSweepRepeat(args[1], *field, *from, *to, *steps, *repeat, *metric, opts, *asJSON)
			return
		}
		runSweep(args[1], *field, *from, *to, *steps, opts, *asJSON)
		return
	case "soak":
		if len(args) != 1 {
			fmt.Fprintf(os.Stderr, "usage: borealis-sim [-json] [-parallel N] [-seed S] [-batch N] [-batches N] [-budget D] [-mutate DIRS] [-differential] [-checkpoint FILE] [-out DIR] [-fail-on-finding] soak\n")
			os.Exit(2)
		}
		runSoak(fuzz.SoakOptions{
			Seed:         *seed,
			BatchRuns:    *batchRuns,
			MaxBatches:   *batches,
			Budget:       *budget,
			Parallelism:  *parallel,
			Differential: *differential,
			Checkpoint:   *checkpoint,
		}, *mutateDirs, *outDir, *asJSON, *failOnFinding)
		return
	}
	opts := experiment.Options{Quick: *quick}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range experiments {
				want[e.name] = true
			}
			continue
		}
		found := false
		for _, e := range experiments {
			if e.name == a {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", a)
			usage()
			os.Exit(2)
		}
		want[a] = true
	}
	first := true
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		start := time.Now()
		fmt.Printf("=== %s — %s ===\n", e.name, e.desc)
		e.run(opts, os.Stdout)
		fmt.Printf("(%s in %.1fs wall time)\n", e.name, time.Since(start).Seconds())
	}
}

// installTrace opens the -trace destination and wires it into the options
// as a line-oriented protocol event sink; the returned closer flushes it.
// An empty path is a no-op.
func installTrace(opts *scenario.Options, path string) func() {
	if path == "" {
		return func() {}
	}
	w := os.Stderr
	closeFn := func() {}
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
			os.Exit(1)
		}
		w = f
		closeFn = func() { f.Close() }
	}
	opts.Trace = func(atUS int64, replica, event, detail string) {
		fmt.Fprintf(w, "%12.6fs  %-6s %-20s %s\n", float64(atUS)/1e6, replica, event, detail)
	}
	return closeFn
}

// runScenarios loads, runs and reports each scenario file in order. A
// failed eventual-consistency audit makes the whole invocation exit
// non-zero so CI smoke runs catch regressions. With -json, one file emits
// a single report object (the golden-file form); several files emit one
// JSON array so the output stays machine-parseable. A non-nil mkRuntime
// supplies a fresh execution substrate per file (realtime mode: one wall
// clock per run, since a clock cannot be rewound). A non-zero genSeed
// appends the fuzzer-generated spec for that spec seed — the trace/triage
// path for a campaign finding without materializing its JSON first.
func runScenarios(paths []string, genSeed int64, opts scenario.Options, asJSON bool, mkRuntime func() runtime.Runtime) {
	auditFailed := false
	var reports []*scenario.Report
	specs := make([]*scenario.Spec, 0, len(paths)+1)
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
			os.Exit(1)
		}
		specs = append(specs, spec)
	}
	if genSeed != 0 {
		specs = append(specs, fuzz.GenSpec(genSeed))
	}
	for i, spec := range specs {
		if mkRuntime != nil {
			opts.Runtime = mkRuntime()
		}
		start := time.Now()
		rep, err := scenario.Run(spec, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "borealis-sim: %s: %v\n", spec.Name, err)
			os.Exit(1)
		}
		if rep.Consistency != nil && !rep.Consistency.OK {
			auditFailed = true
		}
		if asJSON {
			reports = append(reports, rep)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		rep.Print(os.Stdout)
		fmt.Printf("(%s in %.1fs wall time)\n", spec.Name, time.Since(start).Seconds())
	}
	if asJSON {
		var b []byte
		var err error
		if len(reports) == 1 {
			b, err = reports[0].JSON()
		} else {
			b, err = json.MarshalIndent(reports, "", "  ")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
			os.Exit(1)
		}
		if len(b) > 0 && b[len(b)-1] != '\n' {
			b = append(b, '\n')
		}
		os.Stdout.Write(b)
	}
	if auditFailed {
		fmt.Fprintf(os.Stderr, "borealis-sim: eventual-consistency audit FAILED\n")
		os.Exit(1)
	}
}

// parseSweepBound reads a sweep range endpoint: a Go duration ("1s",
// "250ms") converted to seconds, or a bare number.
func parseSweepBound(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sweep bound %q: want a duration (1s) or a number", s)
	}
	return v, nil
}

// runSweep varies one field of a scenario across a range and prints the
// per-step metrics table (or, with -json, the rows with full reports).
func runSweep(path, field, fromS, toS string, steps int, opts scenario.Options, asJSON bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	spec, err := scenario.Load(path)
	if err != nil {
		fail(err)
	}
	from, err := parseSweepBound(fromS)
	if err != nil {
		fail(err)
	}
	to, err := parseSweepBound(toS)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	rows, err := scenario.Sweep(spec, scenario.SweepSpec{Field: field, From: from, To: to, Steps: steps}, opts)
	if err != nil {
		fail(err)
	}
	if asJSON {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		fmt.Printf("sweep %s: %s from %s to %s in %d steps\n", spec.Name, field, fromS, toS, steps)
		scenario.PrintSweep(os.Stdout, field, rows)
		fmt.Printf("(%d runs in %.1fs wall time)\n", len(rows), time.Since(start).Seconds())
	}
	for _, r := range rows {
		if r.Report.Consistency != nil && !r.Report.Consistency.OK {
			fmt.Fprintf(os.Stderr, "borealis-sim: eventual-consistency audit FAILED at %s=%g\n", field, r.Value)
			os.Exit(1)
		}
	}
}

// runSweepRepeat runs each swept value as a seed family and prints the
// per-value min/mean/max table of the chosen metric (or, with -json, the
// rows with every report and full per-metric stats).
func runSweepRepeat(path, field, fromS, toS string, steps, repeat int, metric string, opts scenario.Options, asJSON bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	spec, err := scenario.Load(path)
	if err != nil {
		fail(err)
	}
	from, err := parseSweepBound(fromS)
	if err != nil {
		fail(err)
	}
	to, err := parseSweepBound(toS)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	rows, err := scenario.SweepRepeat(spec, scenario.SweepSpec{Field: field, From: from, To: to, Steps: steps}, repeat, opts)
	if err != nil {
		fail(err)
	}
	if asJSON {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		fmt.Printf("sweep %s: %s from %s to %s in %d steps × %d seeds\n", spec.Name, field, fromS, toS, steps, repeat)
		if err := scenario.PrintSweepRepeat(os.Stdout, field, metric, rows); err != nil {
			fail(err)
		}
		fmt.Printf("(%d runs in %.1fs wall time)\n", steps*repeat, time.Since(start).Seconds())
	}
	for _, row := range rows {
		for _, r := range row.Reports {
			if r.Consistency != nil && !r.Consistency.OK {
				fmt.Fprintf(os.Stderr, "borealis-sim: eventual-consistency audit FAILED at %s=%g seed=%d\n", field, row.Value, r.Seed)
				os.Exit(1)
			}
		}
	}
}

// runSoak runs a soak campaign and renders its deterministic summary. The
// mutation pool is loaded from -mutate's directories; minimized unique
// findings land in -out. By default findings do not fail the invocation —
// fuzzing is exploration, and CI compares two invocations' output for
// determinism — but -fail-on-finding turns any finding into a non-zero
// exit now that a clean protocol is the expected state. A campaign that
// cannot run at all always fails.
func runSoak(opts fuzz.SoakOptions, mutateDirs, outDir string, asJSON, failOnFinding bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	if mutateDirs != "" {
		pool, err := fuzz.LoadPool(strings.Split(mutateDirs, ",")...)
		if err != nil {
			fail(err)
		}
		if len(pool) == 0 {
			fail(fmt.Errorf("no specs found under -mutate %s", mutateDirs))
		}
		opts.MutationPool = pool
	}
	if !asJSON {
		opts.Log = os.Stdout
	}
	start := time.Now()
	st, err := fuzz.Soak(opts)
	if err != nil {
		fail(err)
	}
	if outDir != "" && len(st.Findings) > 0 {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fail(err)
		}
		for _, f := range st.Findings {
			spec := f.Shrunk
			if spec == nil {
				spec = f.Spec
			}
			b, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				fail(err)
			}
			name := "soak-" + strings.ReplaceAll(f.Key, ":", "-") + ".json"
			if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
				fail(err)
			}
		}
	}
	if asJSON {
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		st.Print(os.Stdout)
		fmt.Printf("(%d runs in %.1fs wall time)\n", st.Runs, time.Since(start).Seconds())
	}
	if failOnFinding && len(st.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "borealis-sim: %d unique findings (-fail-on-finding)\n", len(st.Findings))
		os.Exit(1)
	}
}

// sweepAxis bundles one sweep dimension's raw flag values.
type sweepAxis struct {
	field, from, to string
	steps           int
}

// parse resolves the axis's range bounds into a SweepSpec.
func (a sweepAxis) parse() (scenario.SweepSpec, error) {
	from, err := parseSweepBound(a.from)
	if err != nil {
		return scenario.SweepSpec{}, err
	}
	to, err := parseSweepBound(a.to)
	if err != nil {
		return scenario.SweepSpec{}, err
	}
	return scenario.SweepSpec{Field: a.field, From: from, To: to, Steps: a.steps}, nil
}

// runGrid crosses two sweep axes into a Steps×Steps2 grid of independent
// runs and renders one report metric as a 2-D matrix (or, with -json, the
// row-major cells with full reports).
func runGrid(path string, ax1, ax2 sweepAxis, metric string, opts scenario.Options, asJSON bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	spec, err := scenario.Load(path)
	if err != nil {
		fail(err)
	}
	var g scenario.GridSpec
	if g.Field1, err = ax1.parse(); err != nil {
		fail(err)
	}
	if g.Field2, err = ax2.parse(); err != nil {
		fail(err)
	}
	// Reject a typoed -metric before burning minutes of grid compute.
	if !asJSON {
		if _, err := scenario.Metric(&scenario.Report{}, metric); err != nil {
			fail(err)
		}
	}
	start := time.Now()
	cells, err := scenario.Grid(spec, g, opts)
	if err != nil {
		fail(err)
	}
	if asJSON {
		b, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		fmt.Printf("grid %s: %s × %s (%d × %d cells)\n",
			spec.Name, ax1.field, ax2.field, ax1.steps, ax2.steps)
		if err := scenario.PrintGrid(os.Stdout, g, cells, metric); err != nil {
			fail(err)
		}
		fmt.Printf("(%d runs in %.1fs wall time)\n", len(cells), time.Since(start).Seconds())
	}
	for _, c := range cells {
		if c.Report.Consistency != nil && !c.Report.Consistency.OK {
			fmt.Fprintf(os.Stderr, "borealis-sim: eventual-consistency audit FAILED at %s=%g %s=%g\n",
				ax1.field, c.Value1, ax2.field, c.Value2)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: borealis-sim [-quick] <experiment>...|all\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim [-quick] [-json] [-no-audit] [-trace FILE] [-gen-seed S] scenario <file.json>...\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim [-quick] [-json] [-no-audit] [-speed N] realtime <file.json>...\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim [-quick] [-json] [-no-audit] [-parallel N] -field F -from A -to B [-steps N] sweep <file.json>\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim ... -field F -from A -to B -field2 G -from2 C -to2 D [-steps2 M] [-metric M] sweep <file.json>\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim ... -field F -from A -to B [-steps N] -repeat R [-metric M] sweep <file.json>\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim [-json] [-parallel N] [-seed S] [-batch N] [-batches N] [-budget D] [-mutate DIRS] [-differential] [-checkpoint FILE] [-out DIR] [-fail-on-finding] soak\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim cluster [-workers N] [-speed N] [-quick] [-json] [-fault-mode kill|stop] [-no-audit] <file.json>\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim worker -spec FILE -owned a,b,... [-worker-name W] [-listen ADDR] [-speed N] [-start-us T] [-recover] [-quick]\n")
	fmt.Fprintf(os.Stderr, "       borealis-sim bench-net [-workers N] [-speed N] [-load X] [-dur S] [-fail-on-ctl-drop] <file.json>\n\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.name, e.desc)
	}
	fmt.Fprintf(os.Stderr, "\nscenario files: see scenarios/ and docs/SCENARIOS.md\n")
}
