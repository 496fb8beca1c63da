package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/fabric"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
)

// The -trace 1 mode: per-layer metrics from the probes and a traced run.
// End-to-end numbers are never taken here — the traced run exists to say
// where the time goes, and its difference from an untraced run is the
// tracing overhead.

// stackRow is one line of the "where does a tuple's time go" table.
type stackRow struct {
	Layer    string
	Units    float64 // tuples, messages or events through the layer in one run
	UnitName string
	NSPer    float64
	TotalMS  float64
	Share    float64 // of the untraced end-to-end time
	Allocs   float64 // per unit
	// Sub marks rows already counted inside the row above them (the
	// operators inside engine dispatch); they are not summed again.
	Sub bool
}

// zeroLayers sets every per-layer metric to 0 so a workload reports the
// full list; the ones that apply are overwritten.
func zeroLayers(res *Result) {
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0
	}
}

// setProbeMetrics copies the probe outcomes into the result.
func setProbeMetrics(res *Result, ps *probeSet) {
	m := res.Metrics
	for _, p := range []struct{ probe, ns, allocs string }{
		{"source", "source.ns_per_tuple", "source.allocs_per_tuple"},
		{"netsim", "netsim.ns_per_msg", "netsim.allocs_per_msg"},
		{"vclock", "runtime.virtual.ns_per_event", ""},
		{"wclock", "runtime.wall.ns_per_event", ""},
		{"inputmgr", "node.inputmgr.ns_per_tuple", "node.inputmgr.allocs_per_tuple"},
		{"engine", "engine.ns_per_tuple", "engine.allocs_per_tuple"},
		{"sunion", "operator.sunion.ns_per_tuple", ""},
		{"stateless", "operator.stateless.ns_per_tuple", ""},
		{"soutput", "operator.soutput.ns_per_tuple", ""},
		{"sjoin", "operator.sjoin.ns_per_tuple", ""},
		{"aggregate", "operator.aggregate.ns_per_tuple", ""},
		{"outbuf", "node.outputbuffer.ns_per_tuple", "node.outputbuffer.allocs_per_tuple"},
		{"client", "client.ns_per_tuple", ""},
		{"encode", "transport.codec.encode_ns_per_tuple", ""},
		{"decode", "transport.codec.decode_ns_per_tuple", ""},
		{"tcp", "transport.tcp.ns_per_tuple", ""},
	} {
		m[p.ns] = ps.st[p.probe].perUnit()
		if p.allocs != "" {
			m[p.allocs] = ps.st[p.probe].allocsPerUnit()
		}
	}
	m["operator.sjoin.state_tuples"] = float64(ps.sjoinState)
	m["operator.aggregate.open_windows"] = float64(ps.aggWindows)
	if enc := ps.st["encode"]; enc.units > 0 {
		m["transport.codec.bytes_per_tuple"] = ps.codecBytes / enc.units
	}
	if ps.codecFrames > 0 {
		m["transport.codec.allocs_per_frame"] = (ps.st["encode"].allocs + ps.st["decode"].allocs) / ps.codecFrames
	}
	if tcp := ps.st["tcp"]; tcp.ns > 0 {
		m["transport.tcp.frames_per_s"] = ps.tcpFrames / (tcp.ns / 1e9)
	}
}

// setTraceMetrics copies a tracer's totals into the result; denom is what
// busy shares are a share of (traced wall on a virtual clock, process CPU
// on the wire), tuples the run's tuple count.
func setTraceMetrics(res *Result, tr *tracer, denom time.Duration, tuples uint64) {
	m := res.Metrics
	for l := lySource; l <= lyClient; l++ {
		m["trace."+layerNames[l]+".busy_share"] = float64(tr.self[l]) / float64(denom.Nanoseconds())
	}
	if tuples > 0 {
		m["trace.events_per_tuple"] = float64(tr.events) / float64(tuples)
	}
	if tr.msgs > 0 {
		m["trace.tuples_per_msg"] = float64(tr.tuples) / float64(tr.msgs)
	}
	m["trace.msgs_sent"] = float64(tr.msgs)
}

// stackTable scales each probe by the units that crossed its layer in the
// whole run and relates the sum to the end-to-end time: the "sum of layers
// versus end to end" sanity check. fabricRow is the workload's fabric
// (netsim or TCP) and clockRow its clock.
func stackTable(rec *recording, ps *probeSet, fabricRow, clockRow stackRow, scale, endToEndNS float64) ([]stackRow, float64) {
	ratio := func(whole uint64, probed float64) float64 {
		if probed == 0 {
			return 0
		}
		return float64(whole) / probed
	}
	row := func(layer, unit string, st probeStat, k float64) stackRow {
		return stackRow{Layer: layer, UnitName: unit, Units: st.units * k * scale, NSPer: st.perUnit(),
			TotalMS: st.ns * k * scale / 1e6, Allocs: st.allocsPerUnit()}
	}
	kNode := ratio(rec.nodeTuples, ps.st["inputmgr"].units)
	kEngine := ratio(rec.processed, ps.st["engine"].units)
	kClient := ratio(rec.clientTuples, float64(rec.tuplesAt["client"]))
	// Every replica publishes what its probed sibling does, whoever
	// subscribes to it.
	kOut := ratio(uint64(rec.replicas), float64(rec.probed))
	rows := []stackRow{
		row("source", "tuple", ps.st["source"], ratio(rec.produced, ps.st["source"].units)),
		fabricRow, clockRow,
		row("node.inputmgr", "tuple", ps.st["inputmgr"], kNode),
		row("engine", "tuple", ps.st["engine"], kEngine),
	}
	for _, op := range []string{"sunion", "stateless", "soutput", "sjoin", "aggregate"} {
		if st := ps.st[op]; st.units > 0 {
			r := row("  operator."+op, "tuple", st, kEngine)
			r.Sub = true
			rows = append(rows, r)
		}
	}
	rows = append(rows,
		row("node.outputbuffer", "tuple", ps.st["outbuf"], kOut),
		row("client", "tuple", ps.st["client"], kClient))
	var sum float64
	for i := range rows {
		rows[i].Share = rows[i].TotalMS * 1e6 / endToEndNS
		if !rows[i].Sub {
			sum += rows[i].TotalMS * 1e6
		}
	}
	return rows, sum / endToEndNS
}

// unitRow is a stacked-table row for a layer whose units in the run are
// counted directly (messages, events) instead of scaled from the probe's.
func unitRow(layer, unit string, st probeStat, units float64) stackRow {
	return stackRow{Layer: layer, UnitName: unit, Units: units, NSPer: st.perUnit(),
		TotalMS: st.perUnit() * units / 1e6, Allocs: st.allocsPerUnit()}
}

// tracePairs is how many untraced/traced repetition pairs give the tracing
// overhead of a virtual workload.
const tracePairs = 3

// runVirtualLayers is -trace 1 on a virtual workload. Its work is fixed —
// the repetition pairs, one recording, the probes, the check run — so the
// time budget does not apply.
func runVirtualLayers(w *Workload, seed int64, _ time.Duration) *Result {
	res := newResult(w, seed)
	zeroLayers(res)
	var untraced, traced, compile, slices, gcPause, heapEnd []float64
	var tr *tracer
	var tracedWall time.Duration
	var tuples uint64
	err := guarded(150*time.Second, func() error {
		if _, err := virtualRep(w.Name, seed, 0, nil, nil); err != nil { // warm-up
			return err
		}
		for i := 0; i < tracePairs; i++ {
			u, err := virtualRep(w.Name, seed, 0, nil, nil)
			if err != nil {
				return err
			}
			t := newTracer()
			s, err := virtualRep(w.Name, seed, 0, t.runtime, func(dep *deploy.Deployment) {
				wrapHandlers(dep, func(_ string, l layerID, h fabric.Handler) fabric.Handler { return t.handler(l, h) })
			})
			if err != nil {
				return err
			}
			if s.processed != u.processed {
				return fmt.Errorf("traced run processed %d tuples, untraced %d", s.processed, u.processed)
			}
			untraced = append(untraced, u.wallS)
			slices = append(slices, u.sliceMS...)
			gcPause = append(gcPause, u.gcPauseMS)
			heapEnd = append(heapEnd, u.heapEndMB)
			traced = append(traced, s.wallS)
			compile = append(compile, u.setupS*1e3)
			tr, tracedWall, tuples = t, time.Duration(s.wallS*float64(time.Second)), s.processed
		}
		return nil
	})
	if err != nil {
		res.Attempted++
		res.fail(1, "traced run: %v", err)
		return res
	}
	setTraceMetrics(res, tr, tracedWall, tuples)
	res.Metrics["trace.overhead_share"] = median(traced)/median(untraced) - 1
	res.Metrics["scenario.compile_ms"] = median(compile)
	sort.Float64s(slices)
	res.Metrics["run.latency_p99_ms"] = quantile(slices, 0.99)
	res.Metrics["run.latency_p999_ms"] = quantile(slices, 0.999)
	res.Metrics["run.latency_max_ms"] = quantile(slices, 1)
	res.Metrics["run.gc_pause_total_ms"] = median(gcPause)
	res.Metrics["run.heap_end_mb"] = median(heapEnd)
	res.Info["latency_samples"] = float64(len(slices))
	if spansOut != "" {
		if err := tr.writeSpans(spansOut, w.Name, false); err != nil {
			res.fail(1, "writing spans: %v", err)
		}
	}

	var rec *recording
	var ps *probeSet
	err = guarded(150*time.Second, func() (err error) {
		if rec, err = record(w.Name, seed, 0); err != nil {
			return err
		}
		ps, err = runProbes(rec)
		return err
	})
	if err != nil {
		res.Attempted++
		res.fail(1, "probes: %v", err)
		return res
	}
	setProbeMetrics(res, ps)
	wallNS := median(untraced) * 1e9
	fabricRow := unitRow("netsim", "msg", ps.st["netsim"], float64(rec.netDelivered))
	other := float64(rec.events) - float64(rec.netDelivered)
	if other < 0 {
		other = 0
	}
	clockRow := unitRow("runtime.virtual", "event", ps.st["vclock"], other)
	res.Stack, res.Metrics["stack.coverage"] = stackTable(rec, ps, fabricRow, clockRow, 1, wallNS)

	if rep := checkVirtual(w, seed, res); rep != nil {
		setReportMetrics(res, rep)
	}
	return res
}

// setReportMetrics takes the queue-depth, reconciliation and protocol
// counters from the audited check run's report.
func setReportMetrics(res *Result, rep *scenario.Report) {
	m := res.Metrics
	var recon []float64
	for _, n := range rep.Nodes {
		if d := float64(n.MaxQueueDepth); d > m["engine.max_queue_depth"] {
			m["engine.max_queue_depth"] = d
		}
		recon = append(recon, n.ReconcileDurationsS...)
		for _, g := range n.GrantWaitsS {
			if g > m["node.grant_wait_max_s"] {
				m["node.grant_wait_max_s"] = g
			}
		}
	}
	if len(recon) > 0 {
		m["node.reconcile_p50_s"] = median(recon)
	}
	m["protocol.procnew_max_s"] = rep.Client.MaxLatencyS
	m["protocol.stabilization_s"] = rep.Stabilization.LatencyS
	m["protocol.tentative_tuples"] = float64(rep.Client.Tentative)
}

// netsimOnWall runs the wire spec at the same rate on one WallClock over
// netsim and returns its CPU per delivered tuple over the steady part: the
// denominator of transport.cpu_ratio_vs_netsim, the valid replacement for
// BENCH_PR8's pace-bound ratio.
func netsimOnWall(seed int64, warm, steady time.Duration) (float64, error) {
	spec, err := Generate("wire_steady", seed, (warm + steady).Seconds())
	if err != nil {
		return 0, err
	}
	dep, err := scenario.Build(spec, scenario.Options{Runtime: rtpkg.NewWall(1)})
	if err != nil {
		return 0, err
	}
	var delivered uint64
	dep.Client.OnDeliver(func(d client.Delivery) {
		if d.Tuple.IsData() {
			delivered++
		}
	})
	dep.Start()
	dep.RunFor(warm.Microseconds())
	c0, d0 := cpuTime(), delivered
	dep.RunFor(steady.Microseconds())
	if delivered == d0 {
		return 0, fmt.Errorf("netsim-on-wall run delivered nothing in the steady part")
	}
	return float64((cpuTime() - c0).Microseconds()) / float64(delivered-d0), nil
}

// runWireLayers is -trace 1 on the wire workload: an untraced run, a traced
// run and the netsim-on-WallClock run share the budget; the probes replay a
// virtual recording of the same spec.
func runWireLayers(w *Workload, seed int64, budget time.Duration) *Result {
	res := newResult(w, seed)
	zeroLayers(res)
	each := budget / 3
	if each < 4*time.Second {
		each = 4 * time.Second
	}
	warm := wireWarmup(each)
	steady := (each - warm).Truncate(windowLen)

	plain, err := runWireOnce(seed, warm, steady, wireDecor{})
	if err != nil {
		res.Attempted++
		res.fail(1, "untraced wire run: %v", err)
		return res
	}
	pm := plain.metrics()

	var trs [2]*tracer
	dec := wireDecor{
		runtime: func(side int, rt rtpkg.Runtime) rtpkg.Runtime {
			trs[side] = newTracer()
			trs[side].trackLateness(rt)
			return trs[side].runtime(rt)
		},
		fabric: func(side int, f fabric.Fabric) fabric.Fabric {
			own := ownedSet(side)
			return &tracedFabric{Fabric: f, tr: trs[side], isLocal: func(id string) bool { return own[id] },
				layerOf: func(id string) layerID {
					switch {
					case id == "client":
						return lyClient
					case strings.HasPrefix(id, "s"):
						return lySource
					}
					return lyNode
				}}
		},
	}
	c0 := cpuTime()
	tracedRun, err := runWireOnce(seed, warm, steady, dec)
	cpuTraced := cpuTime() - c0
	if err != nil {
		res.Attempted++
		res.fail(1, "traced wire run: %v", err)
		return res
	}
	tm := tracedRun.metrics()
	tr := trs[0]
	tr.merge(trs[1])
	setTraceMetrics(res, tr, cpuTraced, tracedRun.produced)
	m := res.Metrics
	m["trace.offloop_cpu_share"] = 1 - float64(tr.busy())/float64(cpuTraced.Nanoseconds())
	m["trace.overhead_share"] = tm.cpuUS/pm.cpuUS - 1
	sort.Float64s(tr.late)
	m["wire.source_lateness_p99_ms"] = quantile(tr.late, 0.99)
	m["run.latency_p99_ms"] = quantile(pm.all, 0.99)
	m["run.latency_p999_ms"] = quantile(pm.all, 0.999)
	m["run.latency_max_ms"] = quantile(pm.all, 1)
	m["run.gc_pause_total_ms"] = plain.gcPauseMS
	m["run.heap_end_mb"] = plain.heapEndMB
	m["transport.shed_frames"] = float64(plain.shed)
	m["transport.ctl_stalls"] = float64(plain.ctlStalls)
	res.Info["latency_samples"] = float64(len(pm.all))
	if spansOut != "" {
		for i, t := range trs {
			if err := t.writeSpans(spansOut, fmt.Sprintf("%s/p%d", w.Name, i), i > 0); err != nil {
				res.fail(1, "writing spans: %v", err)
			}
		}
	}

	var nsCPU float64
	err = guarded(warm+steady+30*time.Second, func() (err error) {
		nsCPU, err = netsimOnWall(seed, warm, steady)
		return err
	})
	if err != nil {
		res.fail(1, "netsim-on-wall run: %v", err)
	} else {
		m["transport.cpu_ratio_vs_netsim"] = pm.cpuUS / nsCPU
		res.Info["netsim_on_wall_cpu_us_per_tuple"] = nsCPU
	}

	const recordS = 5        // virtual seconds of the same spec the probes replay
	const compileSamples = 9 // scenario.Build timings behind scenario.compile_ms
	var rec *recording
	var ps *probeSet
	var compile []float64
	err = guarded(150*time.Second, func() (err error) {
		if rec, err = record(w.Name, seed, recordS); err != nil {
			return err
		}
		for i := 0; i < compileSamples; i++ {
			t0 := time.Now()
			if _, err := freshDeployment(rec); err != nil {
				return err
			}
			compile = append(compile, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		ps, err = runProbes(rec)
		return err
	})
	if err != nil {
		res.Attempted++
		res.fail(1, "probes: %v", err)
		return res
	}
	setProbeMetrics(res, ps)
	m["scenario.compile_ms"] = median(compile)
	// Per second of workload: the probes' cost against the process CPU
	// the untraced run spent per second.
	remote := float64(tr.remoteTuples) / (warm + steady).Seconds()
	events := float64(tr.events) / (warm + steady).Seconds()
	fabricRow := unitRow("transport.tcp", "tuple", ps.st["tcp"], remote)
	clockRow := unitRow("runtime.wall", "event", ps.st["wclock"], events)
	cpuPerS := pm.cpuUS * pm.tuplesPerS * 1e3 // ns of CPU per second of workload
	res.Stack, m["stack.coverage"] = stackTable(rec, ps, fabricRow, clockRow, 1.0/recordS, cpuPerS)

	for _, side := range plain.deps {
		for _, row := range side.Nodes {
			for _, n := range row {
				if n == nil {
					continue
				}
				if d := float64(n.Engine().MaxQueueLen()); d > m["engine.max_queue_depth"] {
					m["engine.max_queue_depth"] = d
				}
			}
		}
	}
	m["protocol.procnew_max_s"] = plain.procnewS
	plain.audit(res)
	return res
}
