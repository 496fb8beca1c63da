package experiment

import "io"

// BufferAblationRow is one §8.1 buffer-management strategy under a long
// failure.
type BufferAblationRow struct {
	Name string
	// NewDuringFailure counts new tuples delivered while the failure was
	// active: the availability the strategy preserved.
	NewDuringFailure uint64
	// Truncated counts tuples dropped from the node's output buffer.
	Truncated uint64
	// FullConsistency / RecentWindowOK: which consistency guarantee held
	// (unbounded keeps everything; slide keeps a recent window;
	// block keeps everything by sacrificing availability).
	FullConsistency bool
	RecentWindowOK  bool
}

// BufferAblationResult compares the §8.1 buffer-management strategies.
type BufferAblationResult struct {
	FailureSecs int64
	Cap         int
	Rows        []BufferAblationRow
}

// AblateBuffers runs a long failure against unbounded, slide-on-full
// (convergent-capable), and block-on-full (general deterministic) output
// buffers.
func AblateBuffers(opts Options) BufferAblationResult {
	failSecs := int64(20)
	if opts.Quick {
		failSecs = 8
	}
	res := BufferAblationResult{FailureSecs: failSecs, Cap: 2000}
	cases := []struct {
		name, mode string
		cap        int
	}{
		{"unbounded", "unbounded", 0},
		{"slide-on-full (convergent)", "slide", res.Cap},
		{"block-on-full", "block", res.Cap},
	}
	for _, tc := range cases {
		res.Rows = append(res.Rows, bufferRun(tc.name, tc.mode, tc.cap, failSecs, opts))
	}
	return res
}

func bufferRun(name, mode string, capTuples int, failSecs int64, opts Options) BufferAblationRow {
	// No acks: the buffer can only grow during the failure, which is
	// exactly the §8.1 stress.
	s := chain{depth: 1, rate: 500, delayS: 2, buffer: mode, bufferCap: capTuples}.spec("ablate-buffers")
	dep, healed := faultRun(s, disconnect(failSecs), 3*float64(failSecs)+30, opts)

	view := reference(s)
	full := dep.Client.VerifyEventualConsistency(view)
	recent := dep.Client.VerifyRecentWindow(view, 500)
	var truncated uint64
	for _, n := range dep.Nodes[0] {
		truncated += n.Output("n1.out").Truncated
	}
	return BufferAblationRow{
		Name:             name,
		NewDuringFailure: healed.NewTuples,
		Truncated:        truncated,
		FullConsistency:  full.OK,
		RecentWindowOK:   recent.OK,
	}
}

// Print renders the comparison.
func (r BufferAblationResult) Print(w io.Writer) {
	fprintf(w, "§8.1 buffer management under a %d s failure (output-buffer cap %d tuples)\n", r.FailureSecs, r.Cap)
	fprintf(w, "%-28s %16s %12s %10s %10s\n", "strategy", "new during fail", "truncated", "full-cons", "recent-ok")
	for _, row := range r.Rows {
		fprintf(w, "%-28s %16d %12d %10v %10v\n",
			row.Name, row.NewDuringFailure, row.Truncated, row.FullConsistency, row.RecentWindowOK)
	}
}
