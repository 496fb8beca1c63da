package experiment

import (
	"io"

	"borealis/internal/runtime"
)

// Fig19Result reproduces Figs. 19 and 20: how the application's total
// incremental latency X = 8 s should be divided among the SUnions of a
// four-node chain (§6.3). Three assignments are compared, as in the paper:
//
//   - uniform D = X/4 = 2 s per node, Delay & Delay;
//   - uniform D = 2 s per node, Process & Process;
//   - the whole delay (6.5 s — X minus a queuing-safety margin) assigned
//     to every SUnion, Process & Process.
//
// Expected shapes: all three meet X; whole-delay masks failures up to
// ≈ 0.9·6.5 s completely (zero tentative tuples, Fig. 20(b)) and otherwise
// matches Process & Process, because after the initial suspension nodes
// process tuples as they arrive.
type Fig19Result struct {
	X, WholeDelay int64
	Depth         int
	FailureSecs   []int64
	// Procnew (seconds) and Ntentative (tuples) per assignment per
	// failure duration.
	ProcUniformDD []float64
	ProcUniformPP []float64
	ProcWholePP   []float64
	TentUniformDD []uint64
	TentUniformPP []uint64
	TentWholePP   []uint64
}

// Fig19 runs the sweep (Fig. 19 reports the latency rows; Fig. 20 the
// tentative-tuple rows).
func Fig19(opts Options) Fig19Result {
	durations := []int64{5, 10, 15, 30}
	if opts.Quick {
		durations = []int64{5, 10}
	}
	res := Fig19Result{
		X:           8 * runtime.Second,
		WholeDelay:  6500 * runtime.Millisecond,
		Depth:       4,
		FailureSecs: durations,
	}
	uniform := Seconds(res.X) / float64(res.Depth)
	for _, f := range durations {
		p, n := chainRun(fig14(res.Depth, delayDelay, uniform), f, opts)
		res.ProcUniformDD = append(res.ProcUniformDD, p)
		res.TentUniformDD = append(res.TentUniformDD, n)
		p, n = chainRun(fig14(res.Depth, processProcess, uniform), f, opts)
		res.ProcUniformPP = append(res.ProcUniformPP, p)
		res.TentUniformPP = append(res.TentUniformPP, n)
		p, n = chainRun(fig14(res.Depth, processProcess, Seconds(res.WholeDelay)), f, opts)
		res.ProcWholePP = append(res.ProcWholePP, p)
		res.TentWholePP = append(res.TentWholePP, n)
	}
	return res
}

// Print renders both figures as tables.
func (r Fig19Result) Print(w io.Writer) {
	fprintf(w, "Figs. 19-20: delay assignment for a %d-node chain, X = %.0f s\n", r.Depth, Seconds(r.X))
	fprintf(w, "\nFig. 19 — Procnew (seconds)\n%-26s", "assignment \\ failure s")
	for _, f := range r.FailureSecs {
		fprintf(w, "%8d", f)
	}
	rows := []struct {
		name string
		vals []float64
	}{
		{"uniform 2s, Delay&Delay", r.ProcUniformDD},
		{"uniform 2s, Proc&Proc", r.ProcUniformPP},
		{"whole 6.5s, Proc&Proc", r.ProcWholePP},
	}
	for _, row := range rows {
		fprintf(w, "\n%-26s", row.name)
		for _, v := range row.vals {
			fprintf(w, "%s", fmtCell(v))
		}
	}
	fprintf(w, "\n\nFig. 20 — Ntentative (tuples)\n%-26s", "assignment \\ failure s")
	for _, f := range r.FailureSecs {
		fprintf(w, "%8d", f)
	}
	trows := []struct {
		name string
		vals []uint64
	}{
		{"uniform 2s, Delay&Delay", r.TentUniformDD},
		{"uniform 2s, Proc&Proc", r.TentUniformPP},
		{"whole 6.5s, Proc&Proc", r.TentWholePP},
	}
	for _, row := range trows {
		fprintf(w, "\n%-26s", row.name)
		for _, v := range row.vals {
			fprintf(w, "%8d", v)
		}
	}
	fprintf(w, "\n")
}
