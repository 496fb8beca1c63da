// Package experiment regenerates every table and figure of the paper's
// evaluation (§5-§7). Each experiment describes its deployment and the
// paper's failure as a scenario.Spec, builds it with scenario.Build, and
// reports the same rows or series the paper does. Absolute numbers differ
// from the paper's 2005 testbed; the shapes — who wins, by what factor,
// where crossovers fall — are the reproduction target (see EXPERIMENTS.md).
package experiment

import (
	"fmt"
	"io"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/tuple"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks duration sweeps for use inside `go test -bench`.
	Quick bool
	// PerTuple runs every deployment on the per-tuple reference plane
	// instead of the staged batch plane. Metrics are identical either
	// way; TestExperimentsBothPlanes pins that.
	PerTuple bool
}

// build compiles an experiment's scenario into its deployment, ready to
// Start; a build error aborts the experiment. Quick never reaches the
// scenario: it shrinks an experiment's sweep, not its runs (a quick
// scenario shortens the horizon and drops the faults past it).
func (o Options) build(s *scenario.Spec) *deploy.Deployment {
	dep, err := scenario.Build(s, scenario.Options{PerTuple: o.PerTuple})
	if err != nil {
		panic(err)
	}
	return dep
}

// reference is the yardstick every experiment audits against: the stream
// the client of s receives when s runs fault-free for its whole length.
func reference(s *scenario.Spec) []tuple.Tuple {
	view, err := scenario.ClusterReference(s, false)
	if err != nil {
		panic(err)
	}
	return view
}

// failAtS is when a single-fault experiment's fault strikes: after ten
// seconds of steady state.
const failAtS = 10

// disconnect is the Table III failure: s2 disconnects for secs, then
// reconnects and replays everything its subscribers missed.
func disconnect(secs int64) scenario.FaultSpec {
	return scenario.FaultSpec{Kind: "disconnect", Source: "s2", DurationS: float64(secs)}
}

// faultRun completes s with its one fault f, striking at failAtS and
// lasting f.DurationS, and with a length that leaves tailS seconds after
// the heal; then it runs s. The client's measurement window opens at the
// onset (ResetLatency: Procnew and NewTuples count from that instant on),
// and the client's stats are read at the heal. It returns the deployment
// after the run and the stats read at the heal; s stays complete, so the
// caller audits against the same spec.
func faultRun(s *scenario.Spec, f scenario.FaultSpec, tailS float64, opts Options) (*deploy.Deployment, client.Stats) {
	f.AtS = failAtS
	s.Faults = []scenario.FaultSpec{f}
	s.DurationS = f.AtS + f.DurationS + tailS
	us := func(secs float64) int64 { return int64(secs * float64(runtime.Second)) }
	dep := opts.build(s)
	dep.Start()
	dep.RunFor(us(f.AtS))
	dep.Client.ResetLatency()
	dep.RunFor(us(f.DurationS))
	healed := dep.Client.Stats()
	dep.RunFor(us(tailS))
	return dep, healed
}

// chain is the replicated chain of Figs. 12 and 14 — depth levels n1…nN of
// replica pairs, level 1 fed by three sources s1–s3 — in the terms the
// experiments vary.
type chain struct {
	depth int
	// rate is the aggregate input rate, split evenly across the sources.
	rate float64
	// delayS is D, in seconds, for every node's SUnion: the per-node share
	// of the chain's delay, or Fig. 19's whole delay given to every node.
	delayS float64
	// variant selects the §6.1 policies; the zero value is Process &
	// Process.
	variant Variant
	// capacity is each replica's processing rate (0 = unbounded).
	capacity float64
	// acks turns on one-second output-buffer truncation acks.
	acks bool
	// buffer / bufferCap bound the nodes' output buffers (§8.1; "" is
	// unbounded).
	buffer    string
	bufferCap int
	// tentativeBoundaries enables footnote 5 at every SUnion, the client
	// proxy's included.
	tentativeBoundaries bool
	// join adds the Fig. 12 SJoin at level 1, its window sized to hold
	// about 100 tuples of the aggregate input.
	join bool
}

// spec renders the chain as a scenario named name, without faults or
// length (see faultRun).
func (c chain) spec(name string) *scenario.Spec {
	s := &scenario.Spec{
		Name: name,
		Defaults: scenario.Defaults{
			DelayS:        c.delayS,
			Replicas:      2,
			Capacity:      c.capacity,
			FailurePolicy: policy(c.variant.Failure),
			Stabilization: policy(c.variant.Stabilization),
		},
		Sources: []scenario.SourceSpec{{Name: "s", Count: 3, Rate: c.rate}},
		// A small proxy delay and tentative wait keep the client's own
		// SUnion out of the measurements.
		Client: scenario.ClientSpec{DelayMS: 50, TentativeWaitMS: 50, TentativeBoundaries: c.tentativeBoundaries},
	}
	if c.acks {
		s.Defaults.AckIntervalMS = 1000
	}
	input := "s"
	for level := 1; level <= c.depth; level++ {
		n := scenario.NodeSpec{
			Name:                fmt.Sprintf("n%d", level),
			Inputs:              []string{input},
			TentativeBoundaries: c.tentativeBoundaries,
			BufferMode:          c.buffer,
			BufferCap:           c.bufferCap,
		}
		if level == 1 && c.join {
			n.Operators = []scenario.OperatorSpec{{Kind: "join", WindowMS: 100 / c.rate * 1000}}
		}
		s.Nodes = append(s.Nodes, n)
		input = n.Name
	}
	return s
}

// policy names a delay policy in a scenario's terms; PolicyNone leaves the
// scenario default (process).
func policy(p operator.DelayPolicy) string {
	if p == operator.PolicyNone {
		return ""
	}
	return p.String()
}

// Seconds renders a µs virtual duration in seconds.
func Seconds(us int64) float64 { return float64(us) / float64(runtime.Second) }

// Variant names a {failure policy} & {stabilization policy} combination,
// the six alternatives of §6.1.
type Variant struct {
	Name          string
	Failure       operator.DelayPolicy
	Stabilization operator.DelayPolicy
}

// Variants lists the §6.1 combinations in the paper's order.
func Variants() []Variant {
	return []Variant{
		{"Process & Process", operator.PolicyProcess, operator.PolicyProcess},
		{"Delay & Process", operator.PolicyDelay, operator.PolicyProcess},
		{"Process & Delay", operator.PolicyProcess, operator.PolicyDelay},
		{"Delay & Delay", operator.PolicyDelay, operator.PolicyDelay},
		{"Process & Suspend", operator.PolicyProcess, operator.PolicySuspend},
		{"Delay & Suspend", operator.PolicyDelay, operator.PolicySuspend},
	}
}

// fmtCell renders a float with sensible width for table output.
func fmtCell(v float64) string { return fmt.Sprintf("%8.2f", v) }

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
