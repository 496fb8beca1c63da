// Package experiment regenerates every table and figure of the paper's
// evaluation (§5-§7). Each experiment builds a deployment on the simulated
// network, injects the paper's failure, and reports the same rows or series
// the paper does. Absolute numbers differ from the paper's 2005 testbed;
// the shapes — who wins, by what factor, where crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package experiment

import (
	"fmt"
	"io"

	"borealis/internal/deploy"
	"borealis/internal/operator"
	"borealis/internal/runtime"
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

// deployed finishes building an experiment deployment: a build error
// aborts the experiment, and under PerTuple every replica and the client
// proxy move onto the reference plane before anything runs. Every
// deployment an experiment measures or audits against comes through here.
func (o Options) deployed(dep *deploy.Deployment, err error) *deploy.Deployment {
	if err != nil {
		panic(err)
	}
	if o.PerTuple {
		dep.UseReferencePlane()
	}
	return dep
}

// referenceView runs ref, the fault-free twin of an experiment's
// deployment, for dur and returns the stream its client delivered: the
// yardstick every experiment audits against.
func referenceView(ref *deploy.Deployment, dur int64) []tuple.Tuple {
	ref.Start()
	ref.RunFor(dur)
	return ref.Client.View()
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
