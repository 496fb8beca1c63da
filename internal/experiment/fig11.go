package experiment

import (
	"io"

	"borealis/internal/client"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
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

// sunionTree is the Fig. 10 deployment, run for 30 s without faults: one
// unreplicated node whose diagram is the left-deep cascade of three SUnions
// (D = 2 s, stabilizing with Suspend) over four 100 tuples/s sources s1–s4.
func sunionTree() *scenario.Spec {
	one := 1
	return &scenario.Spec{
		Name:      "fig11",
		DurationS: 30,
		Defaults:  scenario.Defaults{DelayS: 2, Stabilization: "suspend"},
		Sources:   []scenario.SourceSpec{{Name: "s", Count: 4, Rate: 400}},
		Nodes:     []scenario.NodeSpec{{Name: "n1", Inputs: []string{"s"}, Replicas: &one, Cascade: true}},
	}
}

// Fig11 runs scenario (a) when overlap is true, else scenario (b).
func Fig11(overlap bool, opts Options) Fig11Result {
	s := sunionTree()
	if overlap {
		// Fig. 11(a): failure 2 begins while failure 1 is active.
		s.Faults = []scenario.FaultSpec{
			{Kind: "disconnect", Source: "s1", AtS: 5, DurationS: 6},
			{Kind: "disconnect", Source: "s3", AtS: 8, DurationS: 6},
		}
	} else {
		// Fig. 11(b): failure 2 begins exactly as failure 1 heals.
		s.Faults = []scenario.FaultSpec{
			{Kind: "disconnect", Source: "s1", AtS: 5, DurationS: 5},
			{Kind: "disconnect", Source: "s3", AtS: 10, DurationS: 6},
		}
	}
	dep := opts.build(s)

	res := Fig11Result{Overlap: overlap}
	var stableSeq, shown int64
	dep.Client.OnDeliver(func(d client.Delivery) {
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
			return
		case tuple.RecDone:
			res.RecDones++
			p.Seq = 0 // plotted on the x-axis
		default:
			return
		}
		res.Series = append(res.Series, p)
	})
	dep.Start()
	dep.RunFor(int64(s.DurationS) * runtime.Second)

	res.Reconciliations = dep.Nodes[0][0].Reconciliations
	st := dep.Client.Stats()
	res.Corrections = st.NewTuples // informational

	audit := dep.Client.VerifyEventualConsistency(reference(s))
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
