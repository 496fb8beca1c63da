package scenario

import (
	"borealis/internal/deploy"
	rtpkg "borealis/internal/runtime"
)

// Options tunes a scenario run.
type Options struct {
	// Quick substitutes the spec's quick duration (smoke tests, CI).
	Quick bool
	// SkipConsistency suppresses the reference run even when the spec
	// asks for the audit (halves the runtime of a smoke run).
	SkipConsistency bool
	// NoAudit additionally strips the client's per-delivery audit
	// instrumentation (undo-compacted view, duplicate tracking), so a
	// throughput measurement times the data plane rather than the audit
	// harness. Implies no consistency report; bench-only.
	NoAudit bool
	// Runtime selects the execution substrate for the main run: nil means
	// a fresh virtual clock (deterministic, instant); a WallClock paces
	// the scenario against real time. The consistency reference always
	// runs on a private virtual clock — it is the deterministic yardstick
	// the wall-clock run is audited against. A runtime must be fresh:
	// scenarios schedule their workload and fault timelines from t=0, so
	// a clock that has already advanced is rejected (a wall clock cannot
	// be rewound; reuse would silently clamp every event to now).
	Runtime rtpkg.Runtime
	// Parallelism bounds the worker pool of RunMany (and therefore Sweep
	// and Grid): ≤ 0 means one worker per GOMAXPROCS core, 1 forces
	// serial in-caller execution. Reports are byte-identical regardless —
	// each run executes on its own virtual clock and results are ordered
	// by input index, so parallelism only changes wall-clock time.
	Parallelism int
	// Trace, when non-nil, receives every protocol event of the main run
	// (state transitions, checkpoints, reconcile and correction messages)
	// from every node replica, in deterministic virtual-time order. The
	// consistency reference run is never traced. See node.TraceFn.
	Trace func(atUS int64, replica, event, detail string)
	// PerTuple runs every node (and the consistency reference, so both
	// executions share one data plane) on the per-tuple reference plane
	// (deploy.Deployment.UseReferencePlane) instead of the staged batch
	// plane. It exists for the differential oracles and the plane tests:
	// reports are byte-identical either way, and they enforce it.
	PerTuple bool
}

// freshRuntime resolves the substrate, rejecting a clock that has already
// been driven or already carries scheduled events (e.g. a prior Build on
// it): two deployments sharing one event heap interleave their timelines.
func freshRuntime(opts Options) (rtpkg.Runtime, error) {
	if opts.Runtime == nil {
		return rtpkg.NewVirtual(), nil
	}
	if now := opts.Runtime.Now(); now != 0 {
		return nil, errf("runtime already driven to t=%dµs; scenarios schedule from t=0 — use a fresh runtime per run", now)
	}
	if n := opts.Runtime.Pending(); n != 0 {
		return nil, errf("runtime already has %d scheduled events; scenarios need a fresh runtime per run", n)
	}
	return opts.Runtime, nil
}

// Run executes a validated spec and returns its metrics report. On the
// default virtual runtime, same spec + same seed ⇒ bit-identical report.
func Run(s *Spec, opts Options) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return runValidated(s, opts)
}

// runValidated is Run without the validation pass: the per-run path of
// RunMany, which validates each spec exactly once up front instead of
// once per cell. It never mutates the spec, so many concurrent runs may
// share one *Spec.
func runValidated(s *Spec, opts Options) (*Report, error) {
	exec, err := freshRuntime(opts)
	if err != nil {
		return nil, err
	}
	rt, err := compile(exec, nil, nil, s, opts, true)
	if err != nil {
		return nil, err
	}
	rt.dep.Start()
	rt.dep.RunFor(rt.durationUS)
	rep := rt.report()
	if s.VerifyConsistency && !opts.SkipConsistency && !opts.NoAudit {
		ref, err := referenceView(s, opts.Quick, opts.PerTuple)
		if err != nil {
			return nil, err
		}
		AuditCluster(rep, rt.dep.Client.StableView(), ref)
	}
	return rep, nil
}

// Build compiles a spec into a deployment without running it, for callers
// that want to drive the simulation themselves (the paper's experiments,
// custom probes, tracing). Workloads and faults are installed; call Start
// on the result. Quick shrinks the horizon, and faults past it are never
// installed.
func Build(s *Spec, opts Options) (*deploy.Deployment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	exec, err := freshRuntime(opts)
	if err != nil {
		return nil, err
	}
	rt, err := compile(exec, nil, nil, s, opts, true)
	if err != nil {
		return nil, err
	}
	return rt.dep, nil
}
