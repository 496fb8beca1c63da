package experiment

import (
	"io"

	"borealis/internal/client"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
)

// SwitchoverResult reproduces the §5.1 measurement: how long a downstream
// node is without data when an upstream replica crashes — failure detection
// (bounded by the keep-alive period) plus the switch to another replica
// (the paper measures ≈40 ms for the switch and ≤140 ms in total with a
// 100 ms keep-alive period).
type SwitchoverResult struct {
	KeepAliveMs float64
	// GapMs is the largest inter-delivery gap at the client around the
	// crash; SteadyGapMs the largest gap in steady state (for contrast).
	GapMs, SteadyGapMs float64
	// Tentative must stay 0: switching to a STABLE replica masks the
	// crash entirely.
	Tentative uint64
	Switches  uint64
	// ConsistencyOK: no stable duplicates, stream intact.
	ConsistencyOK bool
}

// Switchover crashes the client's current upstream replica and measures
// the delivery gap.
func Switchover(opts Options) SwitchoverResult {
	// n1a, the client's first upstream, crashes for good.
	const runS = 20
	s := chain{depth: 1, rate: 500, delayS: 2, acks: true}.spec("switchover")
	s.DurationS = runS
	s.Faults = []scenario.FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: failAtS}}
	dep := opts.build(s)
	const crashAt = failAtS * runtime.Second
	var last, steadyGap, crashGap int64
	dep.Client.OnDeliver(func(d client.Delivery) {
		if !d.Tuple.IsData() {
			return
		}
		if last > 0 {
			gap := d.At - last
			if d.At <= crashAt {
				if gap > steadyGap {
					steadyGap = gap
				}
			} else if gap > crashGap {
				crashGap = gap
			}
		}
		last = d.At
	})
	dep.Start()
	dep.RunFor(runS * runtime.Second)
	st := dep.Client.Stats()
	audit := dep.Client.VerifyEventualConsistency(reference(s))

	ms := float64(runtime.Millisecond)
	return SwitchoverResult{
		KeepAliveMs:   100,
		GapMs:         float64(crashGap) / ms,
		SteadyGapMs:   float64(steadyGap) / ms,
		Tentative:     st.Tentative,
		Switches:      dep.Client.Proxy().CM().Switches,
		ConsistencyOK: audit.OK,
	}
}

// Print summarizes the measurement.
func (r SwitchoverResult) Print(w io.Writer) {
	fprintf(w, "Upstream replica crash switchover (§5.1, keep-alive %.0f ms)\n", r.KeepAliveMs)
	fprintf(w, "  steady-state max delivery gap: %8.1f ms\n", r.SteadyGapMs)
	fprintf(w, "  gap across the crash:          %8.1f ms (detection + switch + replay)\n", r.GapMs)
	fprintf(w, "  replica switches:              %8d\n", r.Switches)
	fprintf(w, "  tentative tuples:              %8d (crash fully masked when 0)\n", r.Tentative)
	if r.ConsistencyOK {
		fprintf(w, "  stream consistency:                  ok\n")
	} else {
		fprintf(w, "  stream consistency:                FAIL\n")
	}
}
