package experiment

import (
	"io"

	"borealis/internal/runtime"
)

// Fig13Result reproduces Fig. 13: availability (Procnew) and consistency
// (Ntentative) for the six delay-policy variants of §6.1, on the Fig. 12
// deployment with a 4500 tuples/s aggregate input and D = 3 s.
//
// Expected shapes (paper): every variant masks failures ≤ 0.9·D entirely;
// Process & Process keeps Procnew flat but produces the most tentative
// tuples; Delay & Delay keeps Procnew flat with the fewest tentative
// tuples; the Suspend variants break the availability bound once
// reconciliation outlasts D (around 8 s failures).
type Fig13Result struct {
	D         int64
	Rate      float64
	Durations []int64 // seconds
	Variants  []Variant
	// Procnew[v][d] in seconds; Ntentative[v][d] in tuples.
	Procnew    [][]float64
	Ntentative [][]uint64
}

// Fig13 runs the sweep. Short and long failure durations are combined in
// one series (the paper splits them across subfigures (a,b) and (c,d)).
func Fig13(opts Options) Fig13Result {
	durations := []int64{2, 4, 6, 8, 10, 12, 14, 20, 30, 45, 60}
	if opts.Quick {
		durations = []int64{2, 6, 12}
	}
	res := Fig13Result{
		D:         3 * runtime.Second,
		Rate:      4500,
		Durations: durations,
		Variants:  Variants(),
	}
	for _, v := range res.Variants {
		var procs []float64
		var tents []uint64
		for _, secs := range durations {
			p, n := fig13Run(v, secs, opts)
			procs = append(procs, p)
			tents = append(tents, n)
		}
		res.Procnew = append(res.Procnew, procs)
		res.Ntentative = append(res.Ntentative, tents)
	}
	return res
}

func fig13Run(v Variant, failSecs int64, opts Options) (float64, uint64) {
	c := chain{depth: 1, rate: 4500, delayS: 3, variant: v, capacity: 16500, acks: true}
	dep, _ := faultRun(c.spec("fig13"), disconnect(failSecs), 3*float64(failSecs)+20, opts)
	st := dep.Client.Stats()
	return Seconds(st.MaxLatency), st.Tentative
}

// Print renders both panels as tables.
func (r Fig13Result) Print(w io.Writer) {
	fprintf(w, "Fig. 13: six delay-policy variants (rate %.0f t/s, D = %.0f s)\n", r.Rate, Seconds(r.D))
	fprintf(w, "\n(a,c) Procnew in seconds\n%-20s", "variant \\ failure s")
	for _, d := range r.Durations {
		fprintf(w, "%8d", d)
	}
	fprintf(w, "\n")
	for i, v := range r.Variants {
		fprintf(w, "%-20s", v.Name)
		for _, p := range r.Procnew[i] {
			fprintf(w, "%s", fmtCell(p))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\n(b,d) Ntentative in tuples\n%-20s", "variant \\ failure s")
	for _, d := range r.Durations {
		fprintf(w, "%8d", d)
	}
	fprintf(w, "\n")
	for i, v := range r.Variants {
		fprintf(w, "%-20s", v.Name)
		for _, n := range r.Ntentative[i] {
			fprintf(w, "%8d", n)
		}
		fprintf(w, "\n")
	}
}
