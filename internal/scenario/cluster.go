// Cluster support: the pieces of the scenario engine a multi-process
// deployment needs. A boss process partitions a spec's endpoints across
// worker processes; each worker compiles the shared spec with
// CompilePartition, hosting only its owned endpoints on a TCP fabric, runs
// on a wall clock, and ships a WorkerReport fragment back. The boss merges
// the fragments into the ordinary Report shape and audits Definition 1
// against a fault-free virtual-clock reference run of the same spec — the
// same yardstick the single-process audit uses, because the wall clock's
// event-anchored time keeps stable stream content identical to a virtual
// run of the same program.
package scenario

import (
	"borealis/internal/deploy"
	"borealis/internal/fabric"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/transport"
	"borealis/internal/tuple"
)

// DurationUS resolves a spec's run horizon in virtual microseconds,
// honoring the quick-mode override. The boss schedules real-time fault
// actions and report deadlines against it.
func DurationUS(s *Spec, quick bool) int64 {
	return quickDuration(s, quick)
}

// PartitionRun is one worker's compiled slice of a scenario.
type PartitionRun struct {
	rt *run
}

// CompilePartition compiles the slice of a spec owned by one cluster
// worker onto the given runtime and fabric (the TCP transport in a real
// cluster). Workload schedules are installed for owned sources only, with
// PRNG streams identical to the single-process run; the fault schedule is
// reduced to the locally-executable slice (see eventAction).
func CompilePartition(exec rtpkg.Runtime, fab fabric.Fabric, s *Spec, owned map[string]bool, quick bool) (*PartitionRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rt, err := compile(exec, fab, owned, s, Options{Quick: quick}, true)
	if err != nil {
		return nil, err
	}
	return &PartitionRun{rt: rt}, nil
}

// Deployment exposes the partition's deployment for starting and driving.
func (p *PartitionRun) Deployment() *deploy.Deployment { return p.rt.dep }

// DurationUS is the run horizon in clock microseconds (absolute: a
// respawned worker whose clock starts mid-scenario drives to the same
// horizon).
func (p *PartitionRun) DurationUS() int64 { return p.rt.durationUS }

// WorkerReport is one run's report fragment: the per-endpoint rows of the
// final Report for the sources and replicas the run hosts and, when it
// hosts the client, the client row and client-hook metrics. A cluster
// worker ships it to the boss as a single JSON line, with the full stable
// view attached so the boss can run the Definition 1 audit without a live
// client.
type WorkerReport struct {
	Worker  string         `json:"worker"`
	Sources []SourceReport `json:"sources,omitempty"`
	Nodes   []NodeReport   `json:"nodes,omitempty"`
	Client  *ClientReport  `json:"client,omitempty"`

	// Client-hook metrics (present only with the client).
	Violations    uint64        `json:"violations,omitempty"`
	MaxExcessUS   int64         `json:"max_excess_us,omitempty"`
	LastRecDoneUS int64         `json:"last_rec_done_us,omitempty"`
	StableView    []tuple.Tuple `json:"stable_view,omitempty"`

	// Processed sums engine-processed tuples across hosted replicas (a
	// throughput numerator); the embedded counters are the worker's TCP
	// transport's, zero on any other fabric.
	Processed uint64 `json:"processed"`
	TransportReport
}

// WorkerReport assembles the fragment a worker ships after the partition
// has run.
func (p *PartitionRun) WorkerReport(worker string) *WorkerReport {
	wr := p.rt.fragment()
	wr.Worker = worker
	if c := p.rt.dep.Client; c != nil {
		wr.StableView = c.StableView()
	}
	if tcp, ok := p.rt.dep.Fab.(*transport.TCP); ok {
		wr.TransportReport = transportCounters(tcp)
	}
	return wr
}

// ClusterReference runs the spec fault-free on a private virtual clock for
// its full (or quick) length and returns the client's delivered view: the
// Definition 1 yardstick for any run of the spec — a merged cluster run
// (see AuditCluster), a wall-clock run, or a deployment from Build that the
// caller drove itself, as the paper's experiments do. The name predates
// that wider use.
func ClusterReference(s *Spec, quick bool) ([]tuple.Tuple, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return referenceView(s, quick, false)
}
