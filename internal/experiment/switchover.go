package experiment

import (
	"io"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/runtime"
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
	spec := deploy.ChainSpec{
		Depth:       1,
		Replicas:    2,
		Sources:     3,
		Rate:        500,
		Delay:       2 * runtime.Second,
		AckInterval: runtime.Second,
	}
	dep := opts.deployed(deploy.BuildChain(spec))
	const crashAt = 10 * runtime.Second
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
	dep.CrashNode(1, 0, crashAt)
	dep.Start()
	dep.RunFor(20 * runtime.Second)
	st := dep.Client.Stats()

	ref := opts.deployed(deploy.BuildChain(spec))
	audit := dep.Client.VerifyEventualConsistency(referenceView(ref, 20*runtime.Second))

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
