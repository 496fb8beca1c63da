package fuzz

import (
	"math"

	"borealis/internal/node"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
)

// permCrashSettleS bounds how long a deployment needs to absorb a
// permanent replica crash: keep-alive timeouts fire, downstream input
// managers switch to the surviving replica, and the stream is healthy
// again. No heal event ever fires for the dead replica, so the quiet-tail
// computation charges this settling window instead.
const permCrashSettleS = 10

// settleTailS is how much quiet time a healthy deployment needs after its
// last fault heals before the oracles may judge end-of-run state: the
// worst source→node path sum of SUnion delays over every node (suspensions
// started just before the heal still run to completion, level by level),
// plus a client-slack and reconciliation/propagation allowance.
func settleTailS(s *scenario.Spec) float64 {
	var worst float64
	for i := range s.Nodes {
		worst = math.Max(worst, s.PathDelayS(s.Nodes[i].Name))
	}
	return worst + 5
}

// faultTail is what the oracles need to know about a run's fault timeline.
type faultTail struct {
	horizonS float64
	// fires: some fault fires before the horizon.
	fires bool
	// lastHealS is the latest instant (in spec seconds) at which the
	// schedule stops disturbing the deployment: the last healing event, or
	// a permanent crash's onset plus permCrashSettleS. A heal past the
	// horizon counts — the run ends disturbed. Event instants are whole µs,
	// so messages round it (a 18.7s heal is 18.699999).
	lastHealS float64
	// permanent counts, per node group, the replicas that crash and are
	// never restarted inside the horizon.
	permanent map[string]int
}

func faultTailOf(s *scenario.Spec, quick bool) faultTail {
	evs := scenario.Timeline(s, quick)
	horizonUS := scenario.DurationUS(s, quick)
	tail := faultTail{
		horizonS:  float64(horizonUS) / float64(rtpkg.Second),
		fires:     len(evs) > 0,
		permanent: map[string]int{},
	}
	var lastUS int64
	for _, ev := range evs {
		if ev.Heals {
			lastUS = max(lastUS, ev.AtUS)
		}
		if ev.Kind != scenario.EvCrash || ev.AtUS >= horizonUS {
			continue // not a crash, or one that never happens
		}
		revived := false
		for _, r := range evs {
			if r.Kind == scenario.EvRestart && r.Node == ev.Node && r.Replica == ev.Replica &&
				r.AtUS > ev.AtUS && r.AtUS < horizonUS {
				revived = true
				break
			}
		}
		if !revived {
			tail.permanent[ev.Node]++
			lastUS = max(lastUS, ev.AtUS+permCrashSettleS*rtpkg.Second)
		}
	}
	tail.lastHealS = float64(lastUS) / float64(rtpkg.Second)
	return tail
}

// quietAtEnd reports whether the fault schedule went quiet early enough —
// last heal plus the settling tail inside the horizon — for end-of-run
// structural state to be judged, and that no node group lost all of its
// replicas permanently (a fully-crashed group starves its downstream
// legitimately).
func (tail faultTail) quietAtEnd(s *scenario.Spec) bool {
	if !tail.fires {
		return true // nothing ever disturbed the run
	}
	if tail.lastHealS+settleTailS(s) > tail.horizonS+1e-9 {
		return false
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if tail.permanent[n.Name] >= s.ReplicasOf(n) {
			return false
		}
	}
	return true
}

// capacityBounded reports whether any node runs with finite capacity: an
// overloaded bounded node violates the availability bound legitimately
// (the paper assumes provisioned capacity), so the availability oracle
// stands down.
func capacityBounded(s *scenario.Spec) bool {
	if s.Defaults.Capacity > 0 {
		return true
	}
	for i := range s.Nodes {
		if s.Nodes[i].Capacity != nil && *s.Nodes[i].Capacity > 0 {
			return true
		}
	}
	return false
}

// round3 mirrors the report's rate rounding.
func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

// Check audits one scenario report against the fuzzer's oracles and
// returns every violation found. The spec must be the one the report was
// produced from: the structural oracles condition on the fault schedule
// (quiet tail, fault-free availability) that only the spec knows.
func Check(s *scenario.Spec, rep *scenario.Report) []Finding {
	var fs []Finding
	horizon := rep.DurationS
	tail := faultTailOf(s, rep.Quick)
	quiet := tail.quietAtEnd(s)

	// Definition 1: the stable output prefix must match the fault-free
	// reference run.
	if rep.Consistency != nil && !rep.Consistency.OK {
		fs = findf(fs, "consistency", "Definition 1 audit failed: %s", rep.Consistency.Reason)
	}

	// Starvation / excess: once quiet, the audited run's stable output
	// must have converged to the reference's, not stalled short of it
	// (the masked-heal wedge signature) or overshot it.
	if quiet && rep.Consistency != nil && rep.Consistency.OK && rep.Consistency.RefStable > 0 {
		got, ref := rep.Consistency.GotStable, rep.Consistency.RefStable
		slack := max(25, ref/10)
		if got < ref-slack {
			fs = findf(fs, "starvation",
				"stable output stalled at %d tuples; fault-free reference delivered %d", got, ref)
		}
		if got > ref+slack {
			fs = findf(fs, "excess-stable",
				"stable output %d tuples exceeds the fault-free reference %d", got, ref)
		}
	}

	// Structural end-of-run state: after the quiet tail every live
	// replica must be STABLE with no tentative content buffered in any
	// SUnion — a held bucket can only be removed by a rollback that is
	// never coming.
	if quiet {
		for i := range rep.Nodes {
			n := &rep.Nodes[i]
			if n.Down {
				continue
			}
			if n.HoldsTentative {
				fs = findf(fs, "wedged-sunion",
					"replica %s still buffers tentative tuples %gs after the last heal",
					n.Replica, round3(horizon-tail.lastHealS))
			}
			if n.State != "STABLE" {
				fs = findf(fs, "stuck-state",
					"replica %s ended in %s %gs after the last heal",
					n.Replica, n.State, round3(horizon-tail.lastHealS))
			}
		}
	}

	// Grant starvation: progress-probed grants bound every want→grant
	// wait by revocation cycles of the stall window (plus the peer's own
	// stabilization time and retry pacing), so on a quiet run no replica
	// may have waited anywhere near the 120s GrantTimeout — the wedge
	// pinned by scenarios/corpus/crash-inside-partition.json. The report
	// includes a wait still open at the horizon, so end-of-run starvation
	// is caught too. The GrantTimeout backstop must never be what ends a
	// hold; the progress probe fires orders of magnitude earlier.
	if quiet {
		windowS := float64(node.DefaultGrantStallWindow(
			int64(s.Defaults.KeepAliveMS*float64(rtpkg.Millisecond)), 0)) / float64(rtpkg.Second)
		boundS := 5*windowS + 5
		for i := range rep.Nodes {
			n := &rep.Nodes[i]
			for _, w := range n.GrantWaitsS {
				if w > boundS {
					fs = findf(fs, "grant-starvation",
						"replica %s waited %gs for a reconciliation grant; the stall-window bound is %gs",
						n.Replica, w, boundS)
				}
			}
			if n.GrantRevocations != nil && n.GrantRevocations.Timeout > 0 {
				fs = findf(fs, "grant-starvation",
					"replica %s released a grant via the GrantTimeout backstop %d times; the progress probe should have fired first",
					n.Replica, n.GrantRevocations.Timeout)
			}
		}
	}

	// Availability: with no faults and unbounded capacity, every
	// new-information delivery must meet the bound D.
	if !tail.fires && !capacityBounded(s) && rep.Availability.Violations > 0 {
		fs = findf(fs, "availability",
			"fault-free run violated the availability bound %d times (worst excess %gs)",
			rep.Availability.Violations, rep.Availability.MaxExcessS)
	}

	// Report invariants: internal consistency of the metrics themselves.
	c := &rep.Client
	if rep.DurationS <= 0 {
		fs = findf(fs, "report-invariant", "non-positive duration %g", rep.DurationS)
		return fs
	}
	if got, want := c.ThroughputTPS, round3(float64(c.NewTuples)/rep.DurationS); got != want {
		fs = findf(fs, "report-invariant", "throughput %g does not match %d tuples / %gs", got, c.NewTuples, rep.DurationS)
	}
	if c.NewTuples > 0 {
		if got, want := rep.Availability.ViolationRate, round3(float64(rep.Availability.Violations)/float64(c.NewTuples)); got != want {
			fs = findf(fs, "report-invariant", "violation rate %g does not match %d/%d", got, rep.Availability.Violations, c.NewTuples)
		}
	}
	if c.MeanLatencyS > c.MaxLatencyS+1e-3 {
		fs = findf(fs, "report-invariant", "mean latency %g exceeds max %g", c.MeanLatencyS, c.MaxLatencyS)
	}
	if c.MaxTentativeStreak > c.Tentative {
		fs = findf(fs, "report-invariant", "tentative streak %d exceeds tentative count %d", c.MaxTentativeStreak, c.Tentative)
	}
	if rep.Availability.Violations == 0 && rep.Availability.MaxExcessS != 0 {
		fs = findf(fs, "report-invariant", "zero violations but max excess %g", rep.Availability.MaxExcessS)
	}
	if rep.Stabilization.LastRecDoneS > rep.DurationS+1e-3 {
		fs = findf(fs, "report-invariant", "last REC_DONE at %gs is past the %gs horizon", rep.Stabilization.LastRecDoneS, rep.DurationS)
	}
	if quiet && c.Undos > 0 && c.RecDones == 0 {
		fs = findf(fs, "report-invariant", "%d undos but no REC_DONE reached the client by the quiet end", c.Undos)
	}
	return fs
}

// RunSpec validates and runs one spec, then audits the report. A run
// error becomes a "run-error" finding: a validated spec must always
// compile and execute.
func RunSpec(s *scenario.Spec, opts scenario.Options) (*scenario.Report, []Finding) {
	rep, err := scenario.Run(s, opts)
	if err != nil {
		return nil, []Finding{{Oracle: "run-error", Detail: err.Error()}}
	}
	return rep, Check(s, rep)
}
