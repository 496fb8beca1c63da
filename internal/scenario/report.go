package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"borealis/internal/client"
	"borealis/internal/node"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/transport"
	"borealis/internal/tuple"
)

// Report is the structured result of one scenario run. Every field derives
// deterministically from the spec and seed, so the canonical JSON rendering
// is bit-identical across runs — golden files and the determinism tests
// rely on this. Slices are used instead of maps to keep field order stable.
type Report struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	// Quick marks a reduced -quick run; its numbers are not comparable
	// with a full run of the same scenario.
	Quick     bool    `json:"quick"`
	DurationS float64 `json:"duration_s"`

	Availability  AvailabilityReport  `json:"availability"`
	Client        ClientReport        `json:"client"`
	Stabilization StabilizationReport `json:"stabilization"`
	Sources       []SourceReport      `json:"sources"`
	Nodes         []NodeReport        `json:"nodes"`
	Consistency   *ConsistencyReport  `json:"consistency,omitempty"`
	// Transport aggregates the workers' frame counters in cluster runs
	// (absent in single-process reports, whose fabric is the simulator).
	Transport *TransportReport `json:"transport,omitempty"`
}

// TransportReport sums the cluster workers' TCP frame counters, with the
// aggregate drop count partitioned by cause (see transport.TCP for the
// cause taxonomy). DroppedCtl must stay zero in a healthy run: control
// frames block under flow control instead of shedding, and only a stall
// outliving the control timeout — a dead or wedged peer — drops one.
type TransportReport struct {
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

// add sums another worker's counters in.
func (t *TransportReport) add(o TransportReport) {
	t.Delivered += o.Delivered
	t.Dropped += o.Dropped
	t.DroppedDown += o.DroppedDown
	t.DroppedQueue += o.DroppedQueue
	t.DroppedDead += o.DroppedDead
	t.DroppedWrite += o.DroppedWrite
	t.DroppedLink += o.DroppedLink
	t.DroppedCtl += o.DroppedCtl
	t.CtlStalls += o.CtlStalls
}

// transportCounters snapshots a TCP transport's frame counters.
func transportCounters(tr *transport.TCP) TransportReport {
	return TransportReport{
		Delivered:    tr.Delivered.Load(),
		Dropped:      tr.Dropped.Load(),
		DroppedDown:  tr.DroppedDown.Load(),
		DroppedQueue: tr.DroppedQueue.Load(),
		DroppedDead:  tr.DroppedDead.Load(),
		DroppedWrite: tr.DroppedWrite.Load(),
		DroppedLink:  tr.DroppedLink.Load(),
		DroppedCtl:   tr.DroppedCtl.Load(),
		CtlStalls:    tr.CtlStalls.Load(),
	}
}

// AvailabilityReport checks deliveries against the availability bound D:
// the worst source→client path sum of SUnion delays plus slack.
type AvailabilityReport struct {
	BoundS float64 `json:"bound_s"`
	// Violations counts new-information deliveries whose processing
	// latency exceeded the bound; MaxExcessS is the worst overshoot.
	Violations    uint64  `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
	MaxExcessS    float64 `json:"max_excess_s"`
}

// ClientReport summarizes what the client observed (§2.3 metrics).
type ClientReport struct {
	// NewTuples is client.Stats.NewTuples: one count per distinct stime
	// delivered, not one per tuple; ThroughputTPS is it per second of run.
	NewTuples          uint64  `json:"new_tuples"`
	ThroughputTPS      float64 `json:"throughput_tps"`
	MaxLatencyS        float64 `json:"max_latency_s"`
	MeanLatencyS       float64 `json:"mean_latency_s"`
	Tentative          uint64  `json:"tentative"`
	MaxTentativeStreak uint64  `json:"max_tentative_streak"`
	Undos              uint64  `json:"undos"`
	RecDones           uint64  `json:"rec_dones"`
	StableDuplicates   uint64  `json:"stable_duplicates"`
}

// StabilizationReport measures how long corrections lagged the last heal:
// the time between the final fault healing and the final REC_DONE reaching
// the client. Zero latency means stabilization finished instantly or no
// fault was injected.
type StabilizationReport struct {
	LastFaultHealS float64 `json:"last_fault_heal_s"`
	LastRecDoneS   float64 `json:"last_rec_done_s"`
	LatencyS       float64 `json:"latency_s"`
}

// SourceReport summarizes one source endpoint.
type SourceReport struct {
	Name       string  `json:"name"`
	Produced   uint64  `json:"produced"`
	DroppedLog uint64  `json:"dropped_log,omitempty"`
	FinalRate  float64 `json:"final_rate"`
}

// NodeReport summarizes one replica endpoint at the end of the run.
type NodeReport struct {
	Node            string `json:"node"`
	Replica         string `json:"replica"`
	State           string `json:"state"`
	Down            bool   `json:"down"`
	Reconciliations uint64 `json:"reconciliations"`
	Switches        uint64 `json:"switches"`
	// MaxQueueDepth is the high-water mark of the replica's service
	// queue (batches): sustained depth means the workload exceeds the
	// node's capacity, and reconciliation replays spike it.
	MaxQueueDepth int `json:"max_queue_depth"`
	// ReconcileDurationsS lists each completed reconciliation's duration
	// in seconds, grant → REC_DONE, in completion order — the per-event
	// series behind the aggregate stabilization latency.
	ReconcileDurationsS []float64 `json:"reconcile_durations_s,omitempty"`
	// QueueDepthSeries samples the replica's service-queue depth on a
	// fixed virtual-time cadence (one sample per simulated second): the
	// depth-over-time view that exposes transient overload the
	// MaxQueueDepth high-water mark hides.
	QueueDepthSeries []QueueDepthSample `json:"queue_depth_series,omitempty"`
	// HoldsTentative reports whether any SUnion of the replica still
	// buffered tentative tuples when the run ended. Such a bucket can only
	// be removed by a checkpoint rollback, so if the fault schedule went
	// quiet long before the end of the run this is a wedge: the bucket —
	// and everything downstream of it — will starve forever. The fuzzer's
	// structural oracle keys off this field.
	HoldsTentative bool `json:"holds_tentative,omitempty"`
	// GrantWaitsS lists each reconciliation-authorization wait in seconds
	// — want → grant, in grant order — plus a wait still open when the run
	// ended (a replica starving for a grant reports the starvation instead
	// of hiding it). Progress-probed grants bound every entry by the grant
	// stall window plus the peer's own stabilization time, not the 120s
	// GrantTimeout; the fuzzer's grant-starvation oracle asserts the bound.
	GrantWaitsS []float64 `json:"grant_wait_s,omitempty"`
	// GrantRevocations counts reconciliation promises this replica
	// revoked, by cause; absent when no revocation happened and the
	// GrantTimeout backstop never fired.
	GrantRevocations *GrantRevocationReport `json:"grant_revocations,omitempty"`
}

// GrantRevocationReport partitions a replica's grant revocations by cause
// (see CM.probeGrantedPeer): the granted peer went silent (crashed), froze
// its stabilization-progress token while alive (partitioned data path or
// wedged replay), kept reporting STABLE (its ReconcileDone was lost), or —
// the backstop that progress probing should keep at zero — the full
// GrantTimeout fired.
type GrantRevocationReport struct {
	Silent  uint64 `json:"silent,omitempty"`
	Stalled uint64 `json:"stalled,omitempty"`
	Done    uint64 `json:"done,omitempty"`
	Timeout uint64 `json:"timeout,omitempty"`
}

// QueueDepthSample is one point of a replica's queue-depth time series.
type QueueDepthSample struct {
	TS    float64 `json:"t_s"`
	Depth int     `json:"depth"`
}

// ConsistencyReport is the Definition 1 audit against a fault-free
// reference run of the same spec and seed.
type ConsistencyReport struct {
	OK       bool   `json:"ok"`
	Compared int    `json:"compared"`
	Reason   string `json:"reason,omitempty"`
	// GotStable / RefStable count the stable (INSERTION) tuples of the
	// audited run and of the fault-free reference. The audit itself is a
	// prefix comparison, so a starved stream — stable output stalling long
	// before the reference's — still passes it; the fuzzer's starvation
	// oracle compares these counts instead.
	GotStable int `json:"got_stable,omitempty"`
	RefStable int `json:"ref_stable,omitempty"`
}

// secs renders a µs duration in seconds, rounded to the µs so the JSON
// stays compact and stable.
func secs(us int64) float64 { return float64(us) / float64(rtpkg.Second) }

// round3 keeps derived rates readable without losing determinism.
func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

// hookClient registers the per-delivery collector: availability-bound
// violations over new-information tuples and the REC_DONE high-water mark.
func (rt *run) hookClient() {
	rt.dep.Client.OnDeliver(func(d client.Delivery) {
		t := d.Tuple
		switch {
		case t.IsData():
			if t.STime > rt.maxSTime {
				rt.maxSTime = t.STime
				if lat := d.At - t.STime; lat > rt.boundUS {
					rt.violations++
					if lat-rt.boundUS > rt.maxExcessUS {
						rt.maxExcessUS = lat - rt.boundUS
					}
				}
			}
		case t.Type == tuple.RecDone:
			rt.lastRecDoneUS = d.At
		}
	})
}

// fragment assembles the rows this run can report after it has run: one per
// hosted source and replica and, when it hosts the client, the client row
// and client-hook metrics. Every Report row is built here.
func (rt *run) fragment() *WorkerReport {
	wr := &WorkerReport{
		Sources: make([]SourceReport, 0, len(rt.dep.Sources)),
	}
	for _, src := range rt.dep.Sources {
		wr.Sources = append(wr.Sources, SourceReport{
			Name:       src.ID(),
			Produced:   src.Produced,
			DroppedLog: src.DroppedLog,
			FinalRate:  round3(src.Rate()),
		})
	}
	for gi, name := range rt.dep.GroupNames() {
		wr.Nodes = slices.Grow(wr.Nodes, len(rt.dep.Nodes[gi]))
		for _, n := range rt.dep.Nodes[gi] {
			if n == nil {
				continue // hosted by another partition
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
		wr.Client = &ClientReport{
			NewTuples:          st.NewTuples,
			ThroughputTPS:      round3(float64(st.NewTuples) / secs(rt.durationUS)),
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
	}
	return wr
}

// report is the single-process Report: the merge of the run's one
// whole-deployment fragment, plus the queue-depth series only a
// single-process run samples, minus the transport section only a cluster
// has.
func (rt *run) report() *Report {
	rep := MergeClusterReports(rt.spec, rt.quick, []*WorkerReport{rt.fragment()})
	rep.Transport = nil
	// depthSeries and the merged rows share one order: group by group,
	// then replica.
	for ri, depths := range rt.depthSeries {
		series := make([]QueueDepthSample, len(depths))
		for k, d := range depths {
			series[k] = QueueDepthSample{TS: secs(int64(k+1) * queueSampleInterval), Depth: d}
		}
		rep.Nodes[ri].QueueDepthSeries = series
	}
	return rep
}

// MergeClusterReports folds report fragments into the Report shape, in
// canonical spec order. Endpoints no fragment covers — a worker SIGKILLed
// without a later respawn — get synthesized rows: a crashed replica reports
// FAILURE/down, exactly what its process would say if it could. The
// consistency section is attached separately by AuditCluster.
func MergeClusterReports(s *Spec, quick bool, frags []*WorkerReport) *Report {
	srcByName := make(map[string]SourceReport)
	nodeByID := make(map[string]NodeReport)
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
		tp.add(f.TransportReport)
	}
	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Quick:       quick,
		DurationS:   secs(quickDuration(s, quick)),
		Availability: AvailabilityReport{
			BoundS: secs(availabilityBoundUS(s, s.index())),
		},
		Transport: &tp,
	}
	for i := range s.Sources {
		for _, m := range s.Sources[i].members() {
			sr := srcByName[m] // zero counters when no fragment reports it
			sr.Name = m
			rep.Sources = append(rep.Sources, sr)
		}
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for _, id := range s.replicaIDs(n) {
			nr, ok := nodeByID[id]
			if !ok {
				nr = NodeReport{Node: n.Name, Replica: id, State: "FAILURE", Down: true}
			}
			rep.Nodes = append(rep.Nodes, nr)
		}
	}
	lastHeal := LastFaultHealUS(s, quick)
	if lastHeal >= 0 {
		rep.Stabilization.LastFaultHealS = secs(lastHeal)
	}
	if cli == nil {
		return rep
	}
	rep.Client = *cli.Client
	rep.Availability.Violations = cli.Violations
	rep.Availability.MaxExcessS = secs(cli.MaxExcessUS)
	if rep.Client.NewTuples > 0 {
		rep.Availability.ViolationRate = round3(float64(cli.Violations) / float64(rep.Client.NewTuples))
	}
	if lastHeal >= 0 && cli.LastRecDoneUS > 0 {
		rep.Stabilization.LastRecDoneS = secs(cli.LastRecDoneUS)
		if lag := cli.LastRecDoneUS - lastHeal; lag > 0 {
			rep.Stabilization.LatencyS = secs(lag)
		}
	}
	return rep
}

// referenceView runs the spec fault-free on a private virtual clock and
// returns the client's delivered view: the Definition 1 yardstick.
func referenceView(s *Spec, quick, perTuple bool) ([]tuple.Tuple, error) {
	ref, err := compile(rtpkg.NewVirtual(), nil, nil, s, Options{Quick: quick, PerTuple: perTuple}, false)
	if err != nil {
		return nil, err
	}
	ref.dep.Start()
	ref.dep.RunFor(ref.durationUS)
	return ref.dep.Client.View(), nil
}

// AuditCluster attaches the Definition 1 consistency section to a report:
// stable is the audited run's final stable view (in a cluster, from the
// fragment of the worker hosting the client), ref the fault-free reference
// view of the same spec.
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

// fillGrantReport copies a Consistency Manager's grant-wait samples and
// revocation counters into the replica's report row. endUS lets a wait that
// is still open when the run ends be reported as a wait of run-end minus
// want-time — grant starvation must show up in the report, not vanish
// because the grant never arrived.
func fillGrantReport(nr *NodeReport, cm *node.CM, endUS int64) {
	if waits := cm.GrantWaitsAt(endUS); len(waits) > 0 {
		nr.GrantWaitsS = make([]float64, len(waits))
		for i, w := range waits {
			nr.GrantWaitsS[i] = secs(w)
		}
	}
	if cm.GrantRevokedSilent|cm.GrantRevokedStalled|cm.GrantRevokedDone|cm.GrantTimeouts != 0 {
		nr.GrantRevocations = &GrantRevocationReport{
			Silent:  cm.GrantRevokedSilent,
			Stalled: cm.GrantRevokedStalled,
			Done:    cm.GrantRevokedDone,
			Timeout: cm.GrantTimeouts,
		}
	}
}

// JSON renders the canonical (golden-file) form: two-space indented JSON
// with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Print renders a human-readable summary.
func (r *Report) Print(w io.Writer) {
	mode := ""
	if r.Quick {
		mode = " (quick)"
	}
	fmt.Fprintf(w, "scenario %s%s — seed %d, %.0fs simulated\n", r.Scenario, mode, r.Seed, r.DurationS)
	if r.Description != "" {
		fmt.Fprintf(w, "  %s\n", r.Description)
	}
	c := &r.Client
	fmt.Fprintf(w, "  new tuples        %8d   (%.1f tuples/s)\n", c.NewTuples, c.ThroughputTPS)
	fmt.Fprintf(w, "  latency           max %.3fs  mean %.3fs\n", c.MaxLatencyS, c.MeanLatencyS)
	fmt.Fprintf(w, "  availability      bound %.2fs, %d violations (rate %.3f, worst excess %.3fs)\n",
		r.Availability.BoundS, r.Availability.Violations, r.Availability.ViolationRate, r.Availability.MaxExcessS)
	fmt.Fprintf(w, "  tentative         %d (max streak %d), undos %d, rec_done %d, stable dups %d\n",
		c.Tentative, c.MaxTentativeStreak, c.Undos, c.RecDones, c.StableDuplicates)
	if r.Stabilization.LastFaultHealS > 0 || r.Stabilization.LastRecDoneS > 0 {
		fmt.Fprintf(w, "  stabilization     last heal %.2fs, last rec_done %.2fs, latency %.3fs\n",
			r.Stabilization.LastFaultHealS, r.Stabilization.LastRecDoneS, r.Stabilization.LatencyS)
	}
	for _, n := range r.Nodes {
		state := n.State
		if n.Down {
			state = "CRASHED"
		}
		fmt.Fprintf(w, "  node %-10s %-13s reconciliations=%d switches=%d max_queue=%d",
			n.Replica, state, n.Reconciliations, n.Switches, n.MaxQueueDepth)
		if len(n.ReconcileDurationsS) > 0 {
			fmt.Fprintf(w, " reconcile_s=%v", n.ReconcileDurationsS)
		}
		fmt.Fprintln(w)
	}
	for _, s := range r.Sources {
		fmt.Fprintf(w, "  source %-8s produced=%d final_rate=%.1f", s.Name, s.Produced, s.FinalRate)
		if s.DroppedLog > 0 {
			fmt.Fprintf(w, " dropped_log=%d", s.DroppedLog)
		}
		fmt.Fprintln(w)
	}
	if r.Consistency != nil {
		if r.Consistency.OK {
			fmt.Fprintf(w, "  consistency       ok (%d stable tuples compared)\n", r.Consistency.Compared)
		} else {
			fmt.Fprintf(w, "  consistency       FAILED: %s\n", r.Consistency.Reason)
		}
	}
}
