package experiment

import (
	"io"

	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
)

// ChainResult holds one chain-experiment series: a value per chain depth
// for each of the two §6.2 techniques (Delay & Delay vs Process & Process).
type ChainResult struct {
	Depths       []int
	FailureSecs  int64
	DelayDelay   []float64
	ProcProc     []float64
	Metric       string // "Procnew (s)" or "Ntentative (tuples)"
	PerNodeDelay int64
}

// The two §6.2 techniques the chain figures compare.
var (
	delayDelay     = Variant{"Delay & Delay", operator.PolicyDelay, operator.PolicyDelay}
	processProcess = Variant{"Process & Process", operator.PolicyProcess, operator.PolicyProcess}
)

// fig14 is the Fig. 14 chain: depth replica pairs over a 500 tuples/s
// input, D = delayS on every node, the §6.1 variant v.
func fig14(depth int, v Variant, delayS float64) chain {
	return chain{depth: depth, rate: 500, delayS: delayS, variant: v, capacity: 16500, acks: true}
}

// boundaryStall is the Fig. 14/15 failure: s1 stops sending boundary
// tuples for secs without stopping its data, keeping the output rate
// unchanged.
func boundaryStall(secs int64) scenario.FaultSpec {
	return scenario.FaultSpec{Kind: "stall_boundaries", Source: "s1", DurationS: float64(secs)}
}

// chainRun runs one chain configuration through a boundary stall of
// failSecs and returns (Procnew seconds, Ntentative tuples) measured at the
// client from failure start onward.
func chainRun(c chain, failSecs int64, opts Options) (float64, uint64) {
	dep, _ := faultRun(c.spec("fig14"), boundaryStall(failSecs), 3*float64(failSecs)+30, opts)
	st := dep.Client.Stats()
	return Seconds(st.MaxLatency), st.Tentative
}

// Fig15 reproduces Fig. 15: Procnew against chain depth for a 30-second
// failure, with D = 2 s per node. Expected shape: Delay & Delay grows by
// ≈0.9·D per node; Process & Process stays near one node's delay with a
// small per-node increment (all nodes suspend simultaneously because
// boundary silence propagates instantly, §6.2).
func Fig15(opts Options) ChainResult {
	depths := []int{1, 2, 3, 4}
	if opts.Quick {
		depths = []int{1, 2}
	}
	res := ChainResult{
		Depths:       depths,
		FailureSecs:  30,
		Metric:       "Procnew (s)",
		PerNodeDelay: 2 * runtime.Second,
	}
	for _, d := range depths {
		p, _ := chainRun(fig14(d, delayDelay, Seconds(res.PerNodeDelay)), res.FailureSecs, opts)
		res.DelayDelay = append(res.DelayDelay, p)
		p, _ = chainRun(fig14(d, processProcess, Seconds(res.PerNodeDelay)), res.FailureSecs, opts)
		res.ProcProc = append(res.ProcProc, p)
	}
	return res
}

// Fig16Result groups the Fig. 16 panels: Ntentative against chain depth
// for several failure durations.
type Fig16Result struct {
	Durations []int64
	Panels    []ChainResult
}

// Fig16 reproduces Fig. 16(a-d) (5/10/15/30-second failures) — and, with
// durations = {60}, Fig. 18. Expected shape: Process & Process roughly flat
// in depth; Delay & Delay decreasing with depth by the total chain delay,
// with the gains fading as failures lengthen and vanishing by 60 s.
func Fig16(opts Options, durations ...int64) Fig16Result {
	if len(durations) == 0 {
		durations = []int64{5, 10, 15, 30}
	}
	depths := []int{1, 2, 3, 4}
	if opts.Quick {
		depths = []int{1, 2}
	}
	var res Fig16Result
	res.Durations = durations
	for _, f := range durations {
		panel := ChainResult{
			Depths:       depths,
			FailureSecs:  f,
			Metric:       "Ntentative (tuples)",
			PerNodeDelay: 2 * runtime.Second,
		}
		for _, d := range depths {
			_, n := chainRun(fig14(d, delayDelay, Seconds(panel.PerNodeDelay)), f, opts)
			panel.DelayDelay = append(panel.DelayDelay, float64(n))
			_, n = chainRun(fig14(d, processProcess, Seconds(panel.PerNodeDelay)), f, opts)
			panel.ProcProc = append(panel.ProcProc, float64(n))
		}
		res.Panels = append(res.Panels, panel)
	}
	return res
}

// Fig18 is Fig. 16's machinery at a 60-second failure.
func Fig18(opts Options) Fig16Result { return Fig16(opts, 60) }

// Print renders one chain series.
func (r ChainResult) Print(w io.Writer) {
	fprintf(w, "%s vs chain depth (failure %d s, D = %.0f s per node)\n",
		r.Metric, r.FailureSecs, Seconds(r.PerNodeDelay))
	fprintf(w, "%-18s", "depth")
	for _, d := range r.Depths {
		fprintf(w, "%10d", d)
	}
	fprintf(w, "\n%-18s", "Delay & Delay")
	for _, v := range r.DelayDelay {
		fprintf(w, "%10.2f", v)
	}
	fprintf(w, "\n%-18s", "Process & Process")
	for _, v := range r.ProcProc {
		fprintf(w, "%10.2f", v)
	}
	fprintf(w, "\n")
}

// Print renders every panel.
func (r Fig16Result) Print(w io.Writer) {
	for i, p := range r.Panels {
		if i > 0 {
			fprintf(w, "\n")
		}
		p.Print(w)
	}
}
