package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"borealis/internal/cluster"
	"borealis/internal/scenario"
)

// runWorkerCmd is the `borealis-sim worker` subcommand: one cluster worker
// process, spawned and controlled by the boss over stdio. Flags follow the
// subcommand name (the boss builds the argv), so it parses its own FlagSet
// rather than the global flags.
func runWorkerCmd(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	specPath := fs.String("spec", "", "scenario file (the same file the boss loaded)")
	name := fs.String("worker-name", "w0", "label for this worker's report fragment")
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address for the transport")
	owned := fs.String("owned", "", "comma-separated endpoint IDs this worker hosts")
	speed := fs.Float64("speed", 1, "wall clock time-scale factor")
	startUS := fs.Int64("start-us", 0, "start the clock at this scenario microsecond (respawn)")
	recover := fs.Bool("recover", false, "bring hosted replicas up through §4.5 crash recovery")
	quick := fs.Bool("quick", false, "use the spec's reduced duration")
	fs.Parse(args)
	if *specPath == "" || *owned == "" {
		fmt.Fprintf(os.Stderr, "usage: borealis-sim worker -spec FILE -owned a,b,... [-worker-name W] [-listen ADDR] [-speed N] [-start-us T] [-recover] [-quick]\n")
		os.Exit(2)
	}
	spec, err := scenario.Load(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	cfg := cluster.WorkerConfig{
		Spec:    spec,
		Name:    *name,
		Listen:  *listen,
		Owned:   strings.Split(*owned, ","),
		Quick:   *quick,
		Speed:   *speed,
		StartUS: *startUS,
		Recover: *recover,
	}
	if err := cluster.RunWorker(cfg, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "borealis-sim: worker %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// runClusterCmd is the `borealis-sim cluster` subcommand: the boss. It
// spawns the workers, drives the real fault schedule, merges their report
// fragments and audits Definition 1 against a virtual-clock reference run.
func runClusterCmd(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	workers := fs.Int("workers", 2, "number of worker processes")
	speed := fs.Float64("speed", 1, "wall clock time-scale factor (1 = true real time)")
	quick := fs.Bool("quick", false, "use the spec's reduced duration")
	asJSON := fs.Bool("json", false, "emit the merged report as canonical JSON")
	faultMode := fs.String("fault-mode", cluster.FaultModeKill, "crash fault translation: kill (SIGKILL + respawn) or stop (SIGSTOP/SIGCONT)")
	noAudit := fs.Bool("no-audit", false, "skip the consistency reference run")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: borealis-sim cluster [-workers N] [-speed N] [-quick] [-json] [-fault-mode kill|stop] [-no-audit] <file.json>\n")
		os.Exit(2)
	}
	start := time.Now()
	res, err := cluster.Run(cluster.Options{
		SpecPath:  fs.Arg(0),
		Workers:   *workers,
		Quick:     *quick,
		Speed:     *speed,
		FaultMode: *faultMode,
		SkipAudit: *noAudit,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		b, err := res.Report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
			os.Exit(1)
		}
		if len(b) > 0 && b[len(b)-1] != '\n' {
			b = append(b, '\n')
		}
		os.Stdout.Write(b)
	} else {
		res.Report.Print(os.Stdout)
		fmt.Printf("(%d workers in %.1fs wall time)\n", *workers, time.Since(start).Seconds())
	}
	if res.Report.Consistency != nil && !res.Report.Consistency.OK {
		fmt.Fprintf(os.Stderr, "borealis-sim: eventual-consistency audit FAILED\n")
		os.Exit(1)
	}
}

// NetBenchSummary is bench-net's JSON output: one saturating run of the
// scenario on real worker processes over localhost TCP.
type NetBenchSummary struct {
	Scenario  string  `json:"scenario"`
	Speed     float64 `json:"speed"`
	Load      float64 `json:"load"`
	Workers   int     `json:"workers"`
	Tuples    uint64  `json:"tuples"`
	WallS     float64 `json:"wall_s"`
	TuplesSec float64 `json:"tuples_per_sec"`
	// DroppedCtl and CtlStalls sum the control-frame counters across
	// workers. Flow control may stall a control frame under saturation
	// (CtlStalls counts those waits) but must never shed one: a non-zero
	// DroppedCtl under bench load is a flow-control bug, and
	// -fail-on-ctl-drop turns it into a non-zero exit for CI.
	DroppedCtl uint64 `json:"dropped_ctl"`
	CtlStalls  uint64 `json:"ctl_stalls"`
}

// runBenchNet is the control-frame correctness gate under saturation: the
// scenario, fault-free and with its source rates multiplied by -load, on a
// real multi-process TCP cluster. With enough load the run is data-plane
// bound — the clocks fall behind schedule and never sleep, data frames shed
// — and the control class must still lose nothing. (Throughput over the
// wire is the benchmark's wire_steady workload; see bench/README.md.)
func runBenchNet(args []string) {
	fs := flag.NewFlagSet("bench-net", flag.ExitOnError)
	workers := fs.Int("workers", 2, "worker processes")
	speed := fs.Float64("speed", 1, "wall clock time-scale factor")
	load := fs.Float64("load", 100, "source-rate multiplier (high enough to saturate the data plane)")
	durS := fs.Float64("dur", 3, "run length in scenario seconds (0 = the spec's)")
	failOnCtlDrop := fs.Bool("fail-on-ctl-drop", false, "exit non-zero if any control frame was dropped")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: borealis-sim bench-net [-workers N] [-speed N] [-load X] [-dur S] [-fail-on-ctl-drop] <file.json>\n")
		os.Exit(2)
	}
	sum, err := benchNet(fs.Arg(0), *workers, *speed, *load, *durS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	jb, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "borealis-sim: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(jb, '\n'))
	if *failOnCtlDrop && sum.DroppedCtl > 0 {
		fmt.Fprintf(os.Stderr, "borealis-sim: bench-net dropped %d control frames under load\n", sum.DroppedCtl)
		os.Exit(1)
	}
}

// benchNet runs the saturating cluster. It returns rather than exits, so
// the temp spec the workers reload is removed on every path.
func benchNet(path string, workers int, speed, load, durS float64) (*NetBenchSummary, error) {
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	// Steady-state saturation: strip the fault schedule, scale the offered
	// load, shorten the horizon.
	clean := spec.Clone()
	clean.Faults = nil
	clean.VerifyConsistency = false
	for i := range clean.Sources {
		clean.Sources[i].Rate *= load
	}
	if durS > 0 {
		clean.DurationS = durS
		clean.QuickDurationS = 0
	}
	b, err := json.Marshal(clean)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(".", "bench-net-*.json")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(cluster.Options{
		SpecPath:  tmp.Name(),
		Workers:   workers,
		Speed:     speed,
		SkipAudit: true,
	})
	if err != nil {
		return nil, err
	}
	sum := &NetBenchSummary{Scenario: clean.Name, Speed: speed, Load: load, Workers: workers, WallS: res.WallS}
	for _, f := range res.Fragments {
		if f != nil {
			sum.Tuples += f.Processed
			sum.DroppedCtl += f.DroppedCtl
			sum.CtlStalls += f.CtlStalls
		}
	}
	sum.TuplesSec = float64(sum.Tuples) / res.WallS
	return sum, nil
}
