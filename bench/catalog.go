package main

import "encoding/json"

// The catalog is the single list of what the benchmark measures: every
// workload and every metric, with unit, direction and (for end-to-end
// metrics) the regression bound. BENCHMARK.json at the repository root is
// this catalog rendered as JSON; catalog_test.go keeps the two equal.

// Workload names one generated input set.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Wire marks the one workload that runs on WallClocks over real
	// sockets; the others run on a VirtualClock over netsim.
	Wire bool `json:"-"`
}

// Metric is one named measurement.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64 `json:"bound,omitempty"`
	// Def is the one-line definition printed by -list and in the README.
	Def string `json:"-"`
}

var workloads = []Workload{
	{Name: "chain_stateless", Why: "fault-free 6-level map/filter chain at 60k tuples/s: the staged batch plane (engine, SUnion, stateless ops, SOutput, OutputBuffer, InputManager, netsim, vtime) does all the work; join and TCP do none"},
	{Name: "join_aggregate", Why: "two 3k tuples/s branches joined on a 200 ms window, then a sliding aggregate: SJoin/Aggregate and the multi-input per-tuple fallback dominate; forwarding layers do little"},
	{Name: "chain_recovery", Why: "3-level chain, finite capacity, 5 s source disconnect overlapped by a replica crash/restart: the same layers on the correction path (tentative, undo, checkpoint, replay) and the paper's metrics"},
	{Name: "wire_steady", Why: "2-level chain at 60k tuples/s, 10 ms buckets, two in-process partitions on WallClocks over real TCP: codec, per-pair writer, read loop, flow control and the WallClock heap replace netsim and vtime", Wire: true},
}

// endToEnd is what the two users of the system feel: the experimenter
// driving the deterministic simulator, and the operator of the wall-clock
// TCP deployment. Every metric is reported on every workload; where the two
// substrates differ the definition says how.
var endToEnd = []Metric{
	{Name: "tuples_per_s", Unit: "tuples/s", Better: "higher", Bound: 0.20,
		Def: "virtual workloads: sum of Engine().Processed over all replicas / wall time of Start+RunFor, median over repetitions; wire_steady: data tuples delivered to the client / steady-window length (equals the offered rate while it is sustainable)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "wire_steady: per delivered data tuple, time.Now() at Client.OnDeliver minus the instant the tuple was due at its source (harness wall anchor + STime), median over 1 s windows of the per-window p50; virtual workloads: wall ms to simulate one virtual second (RunFor slices), p50 over all slices"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "as latency_p50_ms at the 90th percentile (median over windows of the per-window p90 on the wire; p90 over slices on virtual workloads, which on chain_recovery are the correction-path seconds)"},
	{Name: "cpu_us_per_tuple", Unit: "us/tuple", Better: "lower", Bound: 0.25,
		Def: "process user+sys CPU (getrusage) over the timed section / tuples (engine-processed on virtual workloads, median over repetitions; client-delivered over the whole steady window on the wire)"},
	{Name: "alloc_bytes_per_tuple", Unit: "B/tuple", Better: "lower", Bound: 0.05,
		Def: "runtime.MemStats.TotalAlloc delta over the timed section / the same tuple count"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "spec generation + scenario.Build (virtual) or two CompilePartition + transport.Listen + routes (wire), up to but excluding Start; median of 101 set-ups after 150 discarded ones"},
}

// perLayer lists the single-layer measurements reported with -trace. The
// probes (ns and allocs per tuple of one layer driven standalone with the
// message stream recorded from the workload) come first, then the traced
// run, then the wire-only and protocol counters. Metrics that do not apply
// to a workload read 0 there.
var perLayer = []Metric{
	{Name: "source.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "source.New + ticker flushing to one subscriber on a sink fabric"},
	{Name: "source.allocs_per_tuple", Unit: "allocs/tuple", Better: "lower", Def: "heap allocations of the same probe"},
	{Name: "netsim.ns_per_msg", Unit: "ns/msg", Better: "lower", Def: "netsim Send + delivery of the recorded messages to no-op handlers"},
	{Name: "netsim.allocs_per_msg", Unit: "allocs/msg", Better: "lower", Def: "heap allocations of the same probe"},
	{Name: "runtime.virtual.ns_per_event", Unit: "ns/event", Better: "lower", Def: "VirtualClock AtCall + fire of a no-op event at the workload's event spacing"},
	{Name: "runtime.wall.ns_per_event", Unit: "ns/event", Better: "lower", Def: "WallClock AtCall + fire of a no-op event (heap, mutex, time.Now), unpaced"},
	{Name: "node.inputmgr.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "Node.Input(s).Handle on the recorded DataMsgs (classification, log, forward into the engine queue)"},
	{Name: "node.inputmgr.allocs_per_tuple", Unit: "allocs/tuple", Better: "lower", Def: "heap allocations of the same probe"},
	{Name: "engine.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "engine.New on each node diagram: Ingest of the recorded batches to OnOutputBatch (dispatch + all operators)"},
	{Name: "engine.allocs_per_tuple", Unit: "allocs/tuple", Better: "lower", Def: "heap allocations of the same probe"},
	{Name: "operator.sunion.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "SUnion ProcessBatch/Process on the recorded input batches"},
	{Name: "operator.stateless.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "Filter and Map, per operator-tuple, on the upstream operator's output"},
	{Name: "operator.soutput.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "SOutput on the upstream operator's output"},
	{Name: "operator.sjoin.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "SJoin.Process on the serialized two-sided stream"},
	{Name: "operator.sjoin.state_tuples", Unit: "count", Better: "lower", Def: "SJoin.StateSize high-water mark during the probe"},
	{Name: "operator.aggregate.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "Aggregate.Process on the join output"},
	{Name: "operator.aggregate.open_windows", Unit: "count", Better: "lower", Def: "Aggregate.OpenWindows high-water mark during the probe"},
	{Name: "node.outputbuffer.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "OutputBuffer.PublishBatch + flush to one subscribed sink on the node output batches"},
	{Name: "node.outputbuffer.allocs_per_tuple", Unit: "allocs/tuple", Better: "lower", Def: "heap allocations of the same probe"},
	{Name: "client.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "client endpoint (proxy node + audit-free consume) on the recorded client DataMsgs"},
	{Name: "transport.codec.encode_ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "transport.AppendFrame on the recorded DataMsgs into a reused buffer"},
	{Name: "transport.codec.decode_ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "transport.DecodeFrame on the encoded frames"},
	{Name: "transport.codec.bytes_per_tuple", Unit: "B/tuple", Better: "lower", Def: "encoded frame bytes / tuples"},
	{Name: "transport.codec.allocs_per_frame", Unit: "allocs/frame", Better: "lower", Def: "heap allocations of encode + decode per frame"},
	{Name: "transport.tcp.ns_per_tuple", Unit: "ns/tuple", Better: "lower", Def: "loopback transport.TCP Send to handler of the recorded DataMsgs, window-paced so nothing sheds"},
	{Name: "transport.tcp.frames_per_s", Unit: "1/s", Better: "higher", Def: "frames delivered per second by the same probe"},
	{Name: "scenario.compile_ms", Unit: "ms", Better: "lower", Def: "scenario.Build of the generated spec, median"},

	{Name: "trace.source.busy_share", Unit: "share", Better: "lower", Def: "self time of source-owned callbacks / traced wall (wire: / total run-loop time)"},
	{Name: "trace.fabric.busy_share", Unit: "share", Better: "lower", Def: "self time of netsim/transport callbacks and Send spans, handler spans excluded"},
	{Name: "trace.engine.busy_share", Unit: "share", Better: "lower", Def: "self time of engine callbacks (svcDone: dispatch, the operators it runs, publish into the OutputBuffer)"},
	{Name: "trace.node.busy_share", Unit: "share", Better: "lower", Def: "self time of node handler spans and node-owned timers (InputManager, OutputBuffer flush, consistency manager)"},
	{Name: "trace.operator.busy_share", Unit: "share", Better: "lower", Def: "self time of operator-owned timers (SUnion delay/flush timers); operators run by dispatch count under engine"},
	{Name: "trace.client.busy_share", Unit: "share", Better: "lower", Def: "self time of the client endpoint's handler spans"},
	{Name: "trace.offloop_cpu_share", Unit: "share", Better: "lower", Def: "wire only: process CPU not inside any run-loop span (socket readers and writers, GC, runtime)"},
	{Name: "trace.events_per_tuple", Unit: "events/tuple", Better: "lower", Def: "scheduled callbacks fired / tuples"},
	{Name: "trace.tuples_per_msg", Unit: "tuples/msg", Better: "higher", Def: "tuples carried per DataMsg delivered"},
	{Name: "trace.msgs_sent", Unit: "count", Better: "lower", Def: "messages delivered to node and client handlers"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Def: "(traced - untraced) / untraced, wall on virtual workloads, CPU per tuple on the wire"},
	{Name: "stack.coverage", Unit: "share", Better: "higher", Def: "sum over layers of probe ns x units through the layer / untraced end-to-end wall (wire: / process CPU)"},
	{Name: "engine.max_queue_depth", Unit: "count", Better: "lower", Def: "highest Engine().MaxQueueLen over replicas"},
	{Name: "node.reconcile_p50_s", Unit: "virtual_s", Better: "lower", Def: "median reconciliation duration over replicas, in the run's own clock"},
	{Name: "node.grant_wait_max_s", Unit: "virtual_s", Better: "lower", Def: "longest reconciliation-grant wait, in the run's own clock"},

	{Name: "run.latency_p99_ms", Unit: "ms", Better: "lower", Def: "p99 of the untraced run's latency samples: every steady-window delivery on the wire, every one-virtual-second slice on virtual workloads"},
	{Name: "run.latency_p999_ms", Unit: "ms", Better: "lower", Def: "p99.9 of the same samples"},
	{Name: "run.latency_max_ms", Unit: "ms", Better: "lower", Def: "maximum of the same samples"},
	{Name: "run.gc_pause_total_ms", Unit: "ms", Better: "lower", Def: "MemStats.PauseTotalNs delta over the timed section (steady window; one repetition, median)"},
	{Name: "run.heap_end_mb", Unit: "MB", Better: "lower", Def: "MemStats.HeapAlloc at the end of the timed section"},
	{Name: "wire.source_lateness_p99_ms", Unit: "ms", Better: "lower", Def: "wire only: p99 of how late source ticks fired against their wall schedule"},
	{Name: "transport.shed_frames", Unit: "count", Better: "lower", Def: "data frames shed by full peer queues (DroppedQueue)"},
	{Name: "transport.ctl_stalls", Unit: "count", Better: "lower", Def: "control sends that blocked under flow control"},
	{Name: "transport.cpu_ratio_vs_netsim", Unit: "ratio", Better: "lower", Def: "cpu_us_per_tuple on TCP / the same spec and rate on one WallClock with netsim"},

	{Name: "protocol.procnew_max_s", Unit: "virtual_s", Better: "lower", Def: "Report.Client.MaxLatencyS of the audited check run (the paper's Procnew; deterministic)"},
	{Name: "protocol.stabilization_s", Unit: "virtual_s", Better: "lower", Def: "Report.Stabilization.LatencyS (last heal to last REC_DONE; deterministic)"},
	{Name: "protocol.tentative_tuples", Unit: "count", Better: "lower", Def: "Report.Client.Tentative (Ntentative; deterministic)"},
}

// runSeconds is how long one run of the benchmark measures (-seconds as the
// driver passes it).
const runSeconds = 25

// benchmarkJSON renders the catalog as the repository's BENCHMARK.json.
func benchmarkJSON() []byte {
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type boundedMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []Workload      `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []layerMetric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, Workloads: workloads}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the catalog is static data
	}
	return append(b, '\n')
}

func workloadByName(name string) *Workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
