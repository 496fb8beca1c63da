package experiment

import "io"

// TBAblationResult compares chain latency with and without tentative
// boundaries (footnote 5): without them, every SUnion waits a fixed
// TentativeWait before flushing a tentative bucket, so Process & Process
// latency grows by ≈0.3 s per chain node; with them, tentative buckets are
// released as soon as the upstream's tentative watermark proves them
// complete, and latency stays approximately constant with depth.
type TBAblationResult struct {
	Depths                []int
	Without, With         []float64 // Procnew seconds
	TentWithout, TentWith []uint64
}

// AblateTentativeBoundaries runs the comparison on the Fig. 14 chain with
// a 30-second boundary-stall failure.
func AblateTentativeBoundaries(opts Options) TBAblationResult {
	depths := []int{1, 2, 3, 4}
	if opts.Quick {
		depths = []int{1, 3}
	}
	res := TBAblationResult{Depths: depths}
	for _, d := range depths {
		p, n := tbRun(d, false, opts)
		res.Without = append(res.Without, p)
		res.TentWithout = append(res.TentWithout, n)
		p, n = tbRun(d, true, opts)
		res.With = append(res.With, p)
		res.TentWith = append(res.TentWith, n)
	}
	return res
}

func tbRun(depth int, tb bool, opts Options) (float64, uint64) {
	c := fig14(depth, processProcess, 2)
	c.tentativeBoundaries = tb
	dep, _ := faultRun(c.spec("ablate-tb"), boundaryStall(30), 60, opts)
	st := dep.Client.Stats()
	return Seconds(st.MaxLatency), st.Tentative
}

// Print renders the comparison.
func (r TBAblationResult) Print(w io.Writer) {
	fprintf(w, "Footnote-5 ablation: tentative boundaries (Process & Process, 30 s failure)\n")
	fprintf(w, "%-30s", "depth")
	for _, d := range r.Depths {
		fprintf(w, "%10d", d)
	}
	fprintf(w, "\n%-30s", "Procnew (s), without")
	for _, v := range r.Without {
		fprintf(w, "%10.2f", v)
	}
	fprintf(w, "\n%-30s", "Procnew (s), with")
	for _, v := range r.With {
		fprintf(w, "%10.2f", v)
	}
	fprintf(w, "\n%-30s", "Ntentative, without")
	for _, v := range r.TentWithout {
		fprintf(w, "%10d", v)
	}
	fprintf(w, "\n%-30s", "Ntentative, with")
	for _, v := range r.TentWith {
		fprintf(w, "%10d", v)
	}
	fprintf(w, "\n")
}
