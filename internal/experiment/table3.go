package experiment

import (
	"io"

	"borealis/internal/runtime"
)

// Table3Result reproduces Table III: Procnew for different failure
// durations on the Fig. 12 deployment (one replicated node running
// SUnion → SJoin(≈100-tuple state) → SOutput over three input streams).
// The paper reports a constant ≈2.8 s (0.9·D + processing) for every
// duration, always below the 3-second bound.
type Table3Result struct {
	D         int64 // the availability bound assigned to the node
	Durations []int64
	Procnew   []float64 // seconds
	// ConsistencyOK reports the eventual-consistency audit per run.
	ConsistencyOK []bool
}

// Table3 runs the Table III sweep.
func Table3(opts Options) Table3Result {
	durations := []int64{2, 4, 6, 8, 10, 12, 14, 16, 30, 45, 60}
	if opts.Quick {
		durations = []int64{2, 6, 12}
	}
	res := Table3Result{D: 3 * runtime.Second, Durations: durations}
	for _, secs := range durations {
		proc, ok := table3Run(secs, opts)
		res.Procnew = append(res.Procnew, proc)
		res.ConsistencyOK = append(res.ConsistencyOK, ok)
	}
	return res
}

func table3Run(failSecs int64, opts Options) (float64, bool) {
	// The Fig. 12 deployment.
	s := chain{depth: 1, rate: 1500, delayS: 3, join: true, capacity: 16500, acks: true}.spec("table3")
	// Procnew is measured from failure start through recovery, which
	// needs reconciliation time ≈ fail·rate/(cap−rate) per replica, plus
	// slack.
	dep, _ := faultRun(s, disconnect(failSecs), 3*float64(failSecs)+20, opts)
	st := dep.Client.Stats()
	audit := dep.Client.VerifyEventualConsistency(reference(s))
	return Seconds(st.MaxLatency), audit.OK
}

// Print renders the paper's Table III layout.
func (r Table3Result) Print(w io.Writer) {
	fprintf(w, "Table III: Procnew for different failure durations (D = %.0f s, bound %.0f s)\n",
		Seconds(r.D)*0.9/0.9, Seconds(r.D))
	fprintf(w, "%-28s", "Failure duration (seconds)")
	for _, d := range r.Durations {
		fprintf(w, "%8d", d)
	}
	fprintf(w, "\n%-28s", "Procnew (seconds)")
	for _, p := range r.Procnew {
		fprintf(w, "%s", fmtCell(p))
	}
	fprintf(w, "\n%-28s", "eventual consistency")
	for _, ok := range r.ConsistencyOK {
		if ok {
			fprintf(w, "%8s", "ok")
		} else {
			fprintf(w, "%8s", "FAIL")
		}
	}
	fprintf(w, "\n")
}
