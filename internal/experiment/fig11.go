package experiment

import (
	"io"

	"borealis/internal/deploy"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Fig11Point is one delivered tuple in the Fig. 11 series: the paper plots
// tuple sequence numbers against delivery time; REC_DONE markers are
// plotted on the x-axis (sequence 0).
type Fig11Point struct {
	TimeMs float64
	Seq    int64
	Type   tuple.Type
}

// Fig11Result reproduces the Fig. 11 eventual-consistency demonstrations:
// a single unreplicated node running the Fig. 10 SUnion tree, with (a) two
// overlapping failures or (b) a failure striking during recovery.
type Fig11Result struct {
	Overlap bool
	Series  []Fig11Point
	// Summary counters.
	Tentative, Corrections uint64
	Undos, RecDones        uint64
	Reconciliations        uint64
	// ConsistencyOK is the audit against a failure-free run.
	ConsistencyOK bool
	AuditReason   string
}

// Fig11 runs scenario (a) when overlap is true, else scenario (b).
func Fig11(overlap bool, opts Options) Fig11Result {
	spec := deploy.SUnionTreeSpec{Rate: 400, Delay: 2 * runtime.Second, RecordClient: true}
	dep := opts.deployed(deploy.BuildSUnionTree(spec))
	const (
		f1Start = 5 * runtime.Second
		sec     = runtime.Second
	)
	if overlap {
		// Fig. 11(a): failure 2 begins while failure 1 is active.
		dep.Sim.At(f1Start, dep.Sources[0].Disconnect)
		dep.Sim.At(f1Start+3*sec, dep.Sources[2].Disconnect)
		dep.Sim.At(f1Start+6*sec, dep.Sources[0].Reconnect)
		dep.Sim.At(f1Start+9*sec, dep.Sources[2].Reconnect)
	} else {
		// Fig. 11(b): failure 2 begins exactly as failure 1 heals.
		dep.Sim.At(f1Start, dep.Sources[0].Disconnect)
		dep.Sim.At(f1Start+5*sec, func() {
			dep.Sources[0].Reconnect()
			dep.Sources[2].Disconnect()
		})
		dep.Sim.At(f1Start+11*sec, dep.Sources[2].Reconnect)
	}
	dep.Start()
	dep.RunFor(30 * runtime.Second)

	res := Fig11Result{Overlap: overlap}
	var stableSeq, shown int64
	for _, d := range dep.Client.Trace() {
		p := Fig11Point{TimeMs: float64(d.At) / float64(runtime.Millisecond), Type: d.Tuple.Type}
		switch d.Tuple.Type {
		case tuple.Insertion:
			stableSeq++
			shown++
			p.Seq = shown
		case tuple.Tentative:
			shown++
			p.Seq = shown
			res.Tentative++
		case tuple.Undo:
			res.Undos++
			// Roll the displayed sequence back to the stable prefix,
			// like the paper's plots do implicitly.
			shown = stableSeq
			continue
		case tuple.RecDone:
			res.RecDones++
			p.Seq = 0 // plotted on the x-axis
		default:
			continue
		}
		res.Series = append(res.Series, p)
	}
	res.Reconciliations = dep.Nodes[0][0].Reconciliations
	st := dep.Client.Stats()
	res.Corrections = st.NewTuples // informational

	ref := opts.deployed(deploy.BuildSUnionTree(deploy.SUnionTreeSpec{Rate: spec.Rate, Delay: spec.Delay}))
	audit := dep.Client.VerifyEventualConsistency(referenceView(ref, 30*runtime.Second))
	res.ConsistencyOK = audit.OK
	res.AuditReason = audit.Reason
	return res
}

// Print summarizes the run; use the CSV dump (cmd/dpcviz) for the plot.
func (r Fig11Result) Print(w io.Writer) {
	name := "Fig. 11(b): failure during recovery"
	wantRec := uint64(2)
	if r.Overlap {
		name = "Fig. 11(a): overlapping failures"
		wantRec = 1
	}
	fprintf(w, "%s\n", name)
	fprintf(w, "  deliveries plotted: %d\n", len(r.Series))
	fprintf(w, "  tentative tuples:   %d\n", r.Tentative)
	fprintf(w, "  undo markers:       %d\n", r.Undos)
	fprintf(w, "  rec_done markers:   %d (expected %d)\n", r.RecDones, wantRec)
	fprintf(w, "  reconciliations:    %d (expected %d)\n", r.Reconciliations, wantRec)
	if r.ConsistencyOK {
		fprintf(w, "  eventual consistency: ok (all tentative corrected, no stable duplicates)\n")
	} else {
		fprintf(w, "  eventual consistency: FAILED: %s\n", r.AuditReason)
	}
}

// TraceCSV renders the series as CSV (time_ms, seq, type).
func (r Fig11Result) TraceCSV(w io.Writer) {
	fprintf(w, "time_ms,seq,type\n")
	for _, p := range r.Series {
		fprintf(w, "%.1f,%d,%s\n", p.TimeMs, p.Seq, p.Type)
	}
}
