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
	"strconv"
	"strings"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/fabric"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Endpoints enumerates every network endpoint a compiled spec registers, in
// deterministic spec order: expanded source members, replica IDs group by
// group, then the client. The boss's partition plan divides exactly this
// set.
func Endpoints(s *Spec) []string {
	var out []string
	for i := range s.Sources {
		out = append(out, s.Sources[i].members()...)
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for r := 0; r < s.replicasOf(n); r++ {
			out = append(out, deploy.GroupReplicaID(n.Name, r))
		}
	}
	return append(out, "client")
}

// FaultTargets lists the replica endpoints hit by process-level faults
// (crash, restart, flap), deduplicated in schedule order. In a cluster run
// each of these is hosted alone on a dedicated worker so the boss can
// translate the fault into a real SIGKILL of that worker's process.
func FaultTargets(s *Spec) []string {
	var out []string
	seen := map[string]bool{}
	for i := range s.Faults {
		f := &s.Faults[i]
		switch f.Kind {
		case "crash", "restart", "flap":
			id := deploy.GroupReplicaID(f.Node, f.Replica)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// DurationUS resolves a spec's run horizon in virtual microseconds,
// honoring the quick-mode override. The boss schedules real-time fault
// actions and report deadlines against it.
func DurationUS(s *Spec, quick bool) int64 {
	return quickDuration(s, quick)
}

// LastFaultHealUS mirrors installFaults' heal bookkeeping on the bare spec:
// the latest instant within the run at which an injected fault heals, -1
// without faults. The boss computes the merged report's stabilization
// baseline from it, since no single worker sees the whole fault schedule.
func LastFaultHealUS(s *Spec, quick bool) int64 {
	durationUS := quickDuration(s, quick)
	last := int64(-1)
	heal := func(atUS int64) {
		if atUS <= durationUS && atUS > last {
			last = atUS
		}
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		at := seconds(f.AtS)
		dur := seconds(f.DurationS)
		if at >= durationUS {
			continue
		}
		switch f.Kind {
		case "crash":
			if dur > 0 {
				heal(at + dur)
			}
		case "restart":
			heal(at)
		case "flap":
			period := seconds(f.PeriodS)
			count := f.Count
			if count <= 0 {
				count = 3
			}
			down := dur
			if down <= 0 {
				down = period / 2
			}
			for k := 0; k < count; k++ {
				heal(at + int64(k)*period + down)
			}
		case "disconnect", "stall_boundaries", "partition":
			heal(at + dur)
		}
	}
	return last
}

// installLocalFaults schedules the slice of the fault timeline a partition
// executes itself: source-level faults on sources it hosts. Process-level
// faults (crash/restart/flap) are the boss's job — it delivers them as real
// signals to the owning worker process. Network partitions are the boss's
// job too: it translates them into timed LINK block/unblock lines applied
// through fabric.LinkControl on every worker.
func (rt *run) installLocalFaults() error {
	for i := range rt.spec.Faults {
		f := &rt.spec.Faults[i]
		at := seconds(f.AtS)
		dur := seconds(f.DurationS)
		if at >= rt.durationUS {
			continue
		}
		switch f.Kind {
		case "crash", "restart", "flap":
			// Translated by the boss into SIGKILL / respawn of the
			// dedicated worker hosting the target replica.
		case "disconnect":
			for _, id := range rt.sourceIDs(f.Source) {
				if src := rt.dep.SourceByID(id); src != nil {
					rt.dep.RT.At(at, src.Disconnect)
					rt.dep.RT.At(at+dur, src.Reconnect)
				}
			}
		case "stall_boundaries":
			for _, id := range rt.sourceIDs(f.Source) {
				if src := rt.dep.SourceByID(id); src != nil {
					rt.dep.RT.At(at, src.StallBoundaries)
					rt.dep.RT.At(at+dur, src.ResumeBoundaries)
				}
			}
		case "partition":
			// Translated by the boss into LINK block/unblock lines
			// broadcast to every worker (the transport blocks the
			// directed links locally, covering intra-worker pairs too).
		}
	}
	return nil
}

// ExpandEndpoint resolves a partition-fault endpoint spec ("client", a node
// name covering all replicas, a "node/replica" pair, a source group or
// expanded member) into network endpoint IDs on the bare spec — the cluster
// boss's counterpart of the compiled run's endpointSet, for translating
// partition faults into link actions without a deployment in hand.
func ExpandEndpoint(s *Spec, ep string) ([]string, error) {
	if ep == "client" {
		return []string{"client"}, nil
	}
	if name, rep, ok := strings.Cut(ep, "/"); ok {
		for i := range s.Nodes {
			n := &s.Nodes[i]
			if n.Name != name {
				continue
			}
			r, err := strconv.Atoi(rep)
			if err != nil || r < 0 || r >= s.replicasOf(n) {
				return nil, errf("bad endpoint %q", ep)
			}
			return []string{deploy.GroupReplicaID(name, r)}, nil
		}
		return nil, errf("bad endpoint %q", ep)
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name != ep {
			continue
		}
		out := make([]string, s.replicasOf(n))
		for r := range out {
			out[r] = deploy.GroupReplicaID(ep, r)
		}
		return out, nil
	}
	for i := range s.Sources {
		ss := &s.Sources[i]
		if ss.Name == ep {
			return ss.members(), nil
		}
		for _, m := range ss.members() {
			if m == ep {
				return []string{m}, nil
			}
		}
	}
	return nil, errf("unknown endpoint %q", ep)
}

// PartitionRun is one worker's compiled slice of a scenario.
type PartitionRun struct {
	rt *run
}

// CompilePartition compiles the slice of a spec owned by one cluster
// worker onto the given runtime and fabric (the TCP transport in a real
// cluster). Workload schedules are installed for owned sources only, with
// PRNG streams identical to the single-process run; the fault schedule is
// reduced to the locally-executable slice (see installLocalFaults).
func CompilePartition(exec rtpkg.Runtime, fab fabric.Fabric, s *Spec, owned map[string]bool, quick bool) (*PartitionRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rt := &run{
		spec:       s,
		quick:      quick,
		durationUS: quickDuration(s, quick),
		lastHealUS: -1,
		maxSTime:   -1,
	}
	idx := s.index()
	dep, err := deploy.BuildPartitionOn(exec, fab, topologySpecOf(s, idx, false, false), owned)
	if err != nil {
		return nil, err
	}
	rt.dep = dep
	rt.boundUS = rt.availabilityBound(idx)
	rt.installWorkloads()
	if err := rt.installLocalFaults(); err != nil {
		return nil, err
	}
	if dep.Client != nil {
		rt.hookClient()
	}
	return &PartitionRun{rt: rt}, nil
}

// Deployment exposes the partition's deployment for starting and driving.
func (p *PartitionRun) Deployment() *deploy.Deployment { return p.rt.dep }

// DurationUS is the run horizon in clock microseconds (absolute: a
// respawned worker whose clock starts mid-scenario drives to the same
// horizon).
func (p *PartitionRun) DurationUS() int64 { return p.rt.durationUS }

// WorkerReport is one worker's report fragment, shipped to the boss as a
// single JSON line. It carries the per-endpoint rows of the final Report
// verbatim, the client-hook metrics, and — when the worker hosts the
// client — the full stable view so the boss can run the Definition 1 audit
// without a live client.
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

	// Processed sums engine-processed tuples across hosted replicas (the
	// bench harness's throughput numerator); Delivered/Dropped are the
	// transport's frame counters, with Dropped partitioned by cause (see
	// transport.TCP) and CtlStalls counting control-class sends that had
	// to block under flow control.
	Processed    uint64 `json:"processed"`
	Delivered    uint64 `json:"delivered"`
	Dropped      uint64 `json:"dropped"`
	DroppedDown  uint64 `json:"dropped_down,omitempty"`
	DroppedQueue uint64 `json:"dropped_queue,omitempty"`
	DroppedDead  uint64 `json:"dropped_dead,omitempty"`
	DroppedWrite uint64 `json:"dropped_write,omitempty"`
	DroppedLink  uint64 `json:"dropped_link,omitempty"`
	DroppedCtl   uint64 `json:"dropped_ctl,omitempty"`
	CtlStalls    uint64 `json:"ctl_stalls,omitempty"`
}

// WorkerReport assembles the fragment after the partition has run.
func (p *PartitionRun) WorkerReport(worker string) *WorkerReport {
	rt := p.rt
	wr := &WorkerReport{Worker: worker}
	for _, src := range rt.dep.Sources {
		wr.Sources = append(wr.Sources, SourceReport{
			Name:       src.ID(),
			Produced:   src.Produced,
			DroppedLog: src.DroppedLog,
			FinalRate:  round3(src.Rate()),
		})
	}
	for gi, name := range rt.dep.GroupNames() {
		for _, n := range rt.dep.Nodes[gi] {
			if n == nil {
				continue
			}
			nr := NodeReport{
				Node:            name,
				Replica:         n.ID(),
				State:           n.State().String(),
				Down:            n.Down(),
				Reconciliations: n.Reconciliations,
				Switches:        n.CM().Switches,
				MaxQueueDepth:   n.Engine().MaxQueueLen(),
				HoldsTentative:  n.Engine().HoldsTentative(),
			}
			if durs := n.ReconcileDurations(); len(durs) > 0 {
				nr.ReconcileDurationsS = make([]float64, len(durs))
				for di, d := range durs {
					nr.ReconcileDurationsS[di] = secs(d)
				}
			}
			fillGrantReport(&nr, n.CM(), rt.durationUS)
			wr.Nodes = append(wr.Nodes, nr)
			wr.Processed += n.Engine().Processed
		}
	}
	if rt.dep.Client != nil {
		st := rt.dep.Client.Stats()
		durS := secs(rt.durationUS)
		wr.Client = &ClientReport{
			NewTuples:          st.NewTuples,
			ThroughputTPS:      round3(float64(st.NewTuples) / durS),
			MaxLatencyS:        secs(st.MaxLatency),
			MeanLatencyS:       round3(st.MeanLatency / float64(rtpkg.Second)),
			Tentative:          st.Tentative,
			MaxTentativeStreak: st.MaxTentativeStreak,
			Undos:              st.Undos,
			RecDones:           st.RecDones,
			StableDuplicates:   st.StableDuplicates,
		}
		wr.Violations = rt.violations
		wr.MaxExcessUS = rt.maxExcessUS
		wr.LastRecDoneUS = rt.lastRecDoneUS
		wr.StableView = rt.dep.Client.StableView()
	}
	return wr
}

// MergeClusterReports folds worker fragments into the ordinary Report
// shape, in canonical spec order. Endpoints no fragment covers — a worker
// SIGKILLed without a later respawn — get synthesized rows: a crashed
// replica reports FAILURE/down, exactly what its process would say if it
// could. The consistency section is attached separately by AuditCluster.
func MergeClusterReports(s *Spec, quick bool, frags []*WorkerReport) *Report {
	durationUS := quickDuration(s, quick)
	durS := secs(durationUS)
	idx := s.index()
	srcByName := map[string]SourceReport{}
	nodeByID := map[string]NodeReport{}
	var cli *WorkerReport
	var tp TransportReport
	for _, f := range frags {
		if f == nil {
			continue
		}
		for _, sr := range f.Sources {
			srcByName[sr.Name] = sr
		}
		for _, nr := range f.Nodes {
			nodeByID[nr.Replica] = nr
		}
		if f.Client != nil {
			cli = f
		}
		tp.Delivered += f.Delivered
		tp.Dropped += f.Dropped
		tp.DroppedDown += f.DroppedDown
		tp.DroppedQueue += f.DroppedQueue
		tp.DroppedDead += f.DroppedDead
		tp.DroppedWrite += f.DroppedWrite
		tp.DroppedLink += f.DroppedLink
		tp.DroppedCtl += f.DroppedCtl
		tp.CtlStalls += f.CtlStalls
	}
	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Quick:       quick,
		DurationS:   durS,
		Availability: AvailabilityReport{
			BoundS: secs(availabilityBoundUS(s, idx)),
		},
		Transport: &tp,
	}
	for i := range s.Sources {
		for _, m := range s.Sources[i].members() {
			if sr, ok := srcByName[m]; ok {
				rep.Sources = append(rep.Sources, sr)
			} else {
				rep.Sources = append(rep.Sources, SourceReport{Name: m})
			}
		}
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for r := 0; r < s.replicasOf(n); r++ {
			id := deploy.GroupReplicaID(n.Name, r)
			if nr, ok := nodeByID[id]; ok {
				rep.Nodes = append(rep.Nodes, nr)
			} else {
				rep.Nodes = append(rep.Nodes, NodeReport{
					Node: n.Name, Replica: id, State: "FAILURE", Down: true,
				})
			}
		}
	}
	if cli != nil {
		rep.Client = *cli.Client
		rep.Availability.Violations = cli.Violations
		rep.Availability.MaxExcessS = secs(cli.MaxExcessUS)
		if rep.Client.NewTuples > 0 {
			rep.Availability.ViolationRate = round3(float64(cli.Violations) / float64(rep.Client.NewTuples))
		}
	}
	if lastHeal := LastFaultHealUS(s, quick); lastHeal >= 0 {
		rep.Stabilization.LastFaultHealS = secs(lastHeal)
		if cli != nil && cli.LastRecDoneUS > 0 {
			rep.Stabilization.LastRecDoneS = secs(cli.LastRecDoneUS)
			if lag := cli.LastRecDoneUS - lastHeal; lag > 0 {
				rep.Stabilization.LatencyS = secs(lag)
			}
		}
	}
	return rep
}

// ClusterReference runs the spec fault-free on a private virtual clock and
// returns the client's delivered view — the Definition 1 yardstick the
// boss audits the merged cluster run against.
func ClusterReference(s *Spec, quick bool) ([]tuple.Tuple, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ref, err := compile(rtpkg.NewVirtual(), s, quick, false, false, false, nil)
	if err != nil {
		return nil, err
	}
	ref.dep.Start()
	ref.dep.RunFor(ref.durationUS)
	return ref.dep.Client.View(), nil
}

// AuditCluster attaches the Definition 1 consistency section to a merged
// report: stable is the cluster client's final stable view (from the
// owning worker's fragment), ref the reference view from ClusterReference.
func AuditCluster(rep *Report, stable, ref []tuple.Tuple) {
	res := client.VerifyViews(stable, ref)
	refStable := 0
	for _, t := range ref {
		if t.Type == tuple.Insertion {
			refStable++
		}
	}
	rep.Consistency = &ConsistencyReport{
		OK:        res.OK,
		Compared:  res.Compared,
		Reason:    res.Reason,
		GotStable: len(stable),
		RefStable: refStable,
	}
}
