package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/fabric"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/transport"
	"borealis/internal/tuple"
)

// The wire workload hosts the generated spec in this process as two
// partitions, each with its own WallClock run loop and its own TCP fabric
// on 127.0.0.1 — two run loops and two connections, no more than the two
// cores of the reference box. Replica pairs are split across the partitions
// and the placement puts every hop of the path the client reads (sources →
// n1a → n2a → client) across the socket. The multi-process boss/worker
// cluster is deliberately not timed: on two cores its wall time is process
// spawn and READY/GO, and its frames cross the same transport code.
var wirePartitions = [2][]string{
	{"s1", "s2", "s3", "n1b", "n2a"},
	{"n1a", "n2b", "client"},
}

func ownedSet(side int) map[string]bool {
	owned := make(map[string]bool, len(wirePartitions[side]))
	for _, id := range wirePartitions[side] {
		owned[id] = true
	}
	return owned
}

// wireWarmup is the part of the run before the steady window: connections
// dial, subscriptions settle, the heap reaches its working size.
func wireWarmup(total time.Duration) time.Duration {
	if w := total / 5; w < 3*time.Second {
		return w
	}
	return 3 * time.Second
}

// windowLen is the length of one steady sub-window. Percentiles and CPU per
// tuple are computed per window and the median over windows is reported, so
// one GC burst or scheduler hiccup moves one sample, not the metric.
const windowLen = time.Second

type wireWindow struct {
	latUS     []int32 // per delivered data tuple, µs from due instant to delivery
	delivered uint64
	cpu       time.Duration
}

// wireSide is one hosted partition.
type wireSide struct {
	clk rtpkg.Runtime
	tr  *transport.TCP
	pr  *scenario.PartitionRun
}

// wireDecor decorates a partition's runtime and fabric (the traced run);
// nil fields leave them bare.
type wireDecor struct {
	runtime func(side int, rt rtpkg.Runtime) rtpkg.Runtime
	fabric  func(side int, f fabric.Fabric) fabric.Fabric
}

// wireSetup generates the spec and builds both partitions up to but
// excluding Start: the set-up the setup_s metric times.
func wireSetup(seed int64, durationS float64, dec wireDecor) (*scenario.Spec, [2]wireSide, error) {
	var sides [2]wireSide
	spec, err := Generate("wire_steady", seed, durationS)
	if err != nil {
		return nil, sides, err
	}
	closeAll := func() {
		for _, s := range sides {
			if s.tr != nil {
				s.tr.Close()
			}
		}
	}
	for i := range sides {
		var rt rtpkg.Runtime = rtpkg.NewWall(1)
		if dec.runtime != nil {
			rt = dec.runtime(i, rt)
		}
		tr, err := transport.Listen(rt, transport.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			closeAll()
			return nil, sides, fmt.Errorf("listen: %w", err)
		}
		sides[i].clk, sides[i].tr = rt, tr
	}
	for i := range sides {
		for _, id := range wirePartitions[1-i] {
			sides[i].tr.AddRoute(id, sides[1-i].tr.Addr())
		}
	}
	for i := range sides {
		owned := ownedSet(i)
		var fab fabric.Fabric = sides[i].tr
		if dec.fabric != nil {
			fab = dec.fabric(i, fab)
		}
		pr, err := scenario.CompilePartition(sides[i].clk, fab, spec, owned, false)
		if err != nil {
			closeAll()
			return nil, sides, err
		}
		sides[i].pr = pr
	}
	return spec, sides, nil
}

// wireRun is the outcome of one wall-clock run.
type wireRun struct {
	spec    *scenario.Spec
	windows []wireWindow
	// steadyS is the measured wall length of the steady window.
	steadyS   float64
	produced  uint64
	allocB    uint64
	gcPauseMS float64
	heapEndMB float64
	// Transport counters summed over both fabrics.
	shed, ctlStalls, droppedCtl uint64
	stable                      []tuple.Tuple
	stableDups                  uint64
	// procnewS is the client's own (event-anchored) maximum latency.
	procnewS float64
	deps     [2]*deploy.Deployment
}

// runWireOnce hosts the two partitions for warm+steady of real time and
// samples the steady window. The latency of a tuple is measured from the
// instant it was due at its source — the wall instant the source side's run
// loop started plus its STime — not from WallClock.Now, which is event-anchored and hides lag (the
// open-loop rule: a stall is charged to every tuple it delays).
func runWireOnce(seed int64, warm, steady time.Duration, dec wireDecor) (*wireRun, error) {
	total := warm + steady
	spec, sides, err := wireSetup(seed, total.Seconds(), dec)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range sides {
			s.tr.Close()
		}
	}()
	nWin := int(steady / windowLen)
	run := &wireRun{spec: spec, windows: make([]wireWindow, nWin)}
	perWin := int(chainRate*windowLen.Seconds()) * 5 / 4
	for i := range run.windows {
		run.windows[i].latUS = make([]int32, 0, perWin)
	}

	runtime.GC()
	// base is the harness's monotonic origin. srcAnchor is the instant,
	// since base, at which the partition hosting the sources started its
	// run loop: a tuple with timestamp STime was due at srcAnchor + STime.
	base := time.Now()
	steadyStart := base.Add(warm)
	var srcAnchor atomic.Int64
	cl := sides[1].pr.Deployment().Client
	maxSTime := int64(-1)
	cl.OnDeliver(func(d client.Delivery) {
		t := d.Tuple
		if !t.IsData() || t.STime < maxSTime {
			return
		}
		maxSTime = t.STime
		now := time.Since(base)
		w := int((now - warm) / windowLen)
		if now < warm || w >= nWin {
			return
		}
		due := time.Duration(srcAnchor.Load()) + time.Duration(t.STime)*time.Microsecond
		win := &run.windows[w]
		win.latUS = append(win.latUS, int32((now-due)/time.Microsecond))
		win.delivered++
	})

	// The sampler reads process CPU at every window edge and the heap
	// counters at both ends of the steady window.
	var m0, m1 runtime.MemStats
	cpuAt := make([]time.Duration, nWin+1)
	var sampledFor time.Duration // measured length of the sampled windows
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(steadyStart))
		runtime.ReadMemStats(&m0)
		var first time.Time
		for k := 0; k <= nWin; k++ {
			time.Sleep(time.Until(steadyStart.Add(time.Duration(k) * windowLen)))
			cpuAt[k] = cpuTime()
			if k == 0 {
				first = time.Now()
			}
		}
		sampledFor = time.Since(first)
		runtime.ReadMemStats(&m1)
	}()

	errs := make(chan error, len(sides)) // one result per run loop
	for i := range sides {
		i, s := i, sides[i]
		go func() {
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("panic in run loop: %v\n%s", p, debug.Stack())
				}
			}()
			s.pr.Deployment().Start()
			if i == 0 {
				srcAnchor.Store(int64(time.Since(base)))
			}
			s.clk.RunUntil(s.pr.DurationUS())
			errs <- nil
		}()
	}
	watchdog := time.NewTimer(total + 30*time.Second)
	defer watchdog.Stop()
	for range sides {
		select {
		case err := <-errs:
			if err != nil {
				return nil, err
			}
		case <-watchdog.C:
			return nil, errWatchdog
		}
	}
	wg.Wait()

	for k := range run.windows {
		run.windows[k].cpu = cpuAt[k+1] - cpuAt[k]
	}
	run.steadyS = sampledFor.Seconds()
	run.allocB = m1.TotalAlloc - m0.TotalAlloc
	run.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	run.heapEndMB = float64(m1.HeapAlloc) / (1 << 20)
	for i, s := range sides {
		dep := s.pr.Deployment()
		run.deps[i] = dep
		run.produced += producedTuples(dep)
		run.shed += s.tr.DroppedQueue.Load()
		run.ctlStalls += s.tr.CtlStalls.Load()
		run.droppedCtl += s.tr.DroppedCtl.Load()
	}
	run.stable = cl.StableView()
	run.stableDups = cl.Stats().StableDuplicates
	run.procnewS = float64(cl.Stats().MaxLatency) / 1e6
	return run, nil
}

// wireMetrics reduces the steady windows to the end-to-end metrics.
type wireMetrics struct {
	tuplesPerS, p50MS, p90MS, cpuUS, allocB float64
	p50s, p90s, cpus                        []float64
	all                                     []float64 // every latency sample, ms, sorted
	delivered                               uint64
}

func (r *wireRun) metrics() wireMetrics {
	var m wireMetrics
	var cpu time.Duration
	for i := range r.windows {
		w := &r.windows[i]
		m.delivered += w.delivered
		if len(w.latUS) == 0 {
			continue
		}
		ms := make([]float64, len(w.latUS))
		for j, v := range w.latUS {
			ms[j] = float64(v) / 1e3
		}
		sort.Float64s(ms)
		m.p50s = append(m.p50s, quantile(ms, 0.5))
		m.p90s = append(m.p90s, quantile(ms, 0.9))
		m.cpus = append(m.cpus, float64(w.cpu.Microseconds())/float64(w.delivered))
		m.all = append(m.all, ms...)
		cpu += w.cpu
	}
	sort.Float64s(m.all)
	m.tuplesPerS = float64(m.delivered) / r.steadyS
	m.p50MS, m.p90MS = median(m.p50s), median(m.p90s)
	if m.delivered > 0 {
		// CPU over the whole steady window, collector included: the
		// windows a GC cycle falls in cost half again as much as the
		// others, and how many of them a run has is part of the cost.
		m.cpuUS = float64(cpu.Microseconds()) / float64(m.delivered)
		m.allocB = float64(r.allocB) / float64(m.delivered)
	}
	return m
}

// audit checks the run's outputs: the client's stable view against the
// fault-free virtual reference of the same spec (Definition 1), no stable
// duplicates, no control frame dropped, no data frame shed. It sets the
// operation counts on res.
func (r *wireRun) audit(res *Result) {
	res.Attempted += r.produced
	if r.droppedCtl > 0 {
		res.fail(r.produced, "transport dropped %d control frames", r.droppedCtl)
	}
	if r.shed > 0 {
		res.fail(r.shed, "transport shed %d data frames", r.shed)
	}
	if r.stableDups > 0 {
		res.fail(r.stableDups, "%d stable duplicates at the client", r.stableDups)
	}
	var ref []tuple.Tuple
	err := guarded(120*time.Second, func() (err error) {
		ref, err = scenario.ClusterReference(r.spec, false)
		return err
	})
	if err != nil {
		res.fail(r.produced, "reference run: %v", err)
		return
	}
	rep := &scenario.Report{}
	scenario.AuditCluster(rep, r.stable, ref)
	c := rep.Consistency
	// The wall run stops with the last buckets still in flight; half a
	// second of output is the allowance before a short stable view counts
	// as missing tuples.
	allowance := chainRate / 2
	switch {
	case !c.OK:
		res.fail(uint64(c.RefStable-c.Compared), "Definition 1 audit against the virtual reference failed: %s", c.Reason)
	case c.GotStable+allowance < c.RefStable:
		res.fail(uint64(c.RefStable-c.GotStable), "stable view has %d tuples, virtual reference %d", c.GotStable, c.RefStable)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Info["stable_tuples_compared"] = float64(c.Compared)
}

// setupSamples is how many times a workload's set-up is repeated for
// setup_s. A set-up takes well under a millisecond, so a hundred of them
// cost nothing and their median does not move with one slow socket call.
const setupSamples = 101

// setupWarmups set-ups are made and discarded first, then collected: the
// timed set-ups that follow allocate from memory the process already owns.
// On a cold heap every set-up page-faults its memory in, which on the
// reference VM is a third of its time and a different third in every
// process.
const setupWarmups = 150

// runWire measures the wire workload: repeated set-ups for setup_s, then
// one run of warm-up plus steady window filling the budget.
func runWire(w *Workload, seed int64, budget time.Duration) *Result {
	res := newResult(w, seed)
	var setups []float64
	resumeGC := pauseGC()
	for i := -setupWarmups; i < setupSamples; i++ {
		t0 := time.Now()
		_, sides, err := wireSetup(seed, budget.Seconds(), wireDecor{})
		if err != nil {
			resumeGC()
			res.Attempted++
			res.fail(1, "set-up: %v", err)
			return res
		}
		if i >= 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		for _, s := range sides {
			s.tr.Close()
		}
		if i == -1 {
			runtime.GC()
		}
	}
	resumeGC()
	warm := wireWarmup(budget)
	steady := (budget - warm).Truncate(windowLen)
	if steady < windowLen {
		steady = windowLen
	}
	run, err := runWireOnce(seed, warm, steady, wireDecor{})
	if err != nil {
		res.Attempted++
		res.fail(1, "wire run: %v", err)
		return res
	}
	m := run.metrics()
	if m.delivered == 0 {
		res.Attempted += run.produced
		res.fail(run.produced, "no tuple reached the client in the steady window")
		return res
	}
	res.Metrics["tuples_per_s"] = m.tuplesPerS
	res.Metrics["latency_p50_ms"] = m.p50MS
	res.Metrics["latency_p90_ms"] = m.p90MS
	res.Metrics["cpu_us_per_tuple"] = m.cpuUS
	res.Metrics["alloc_bytes_per_tuple"] = m.allocB
	res.Metrics["setup_s"] = median(setups)
	res.Samples["latency_p50_ms"] = m.p50s
	res.Samples["latency_p90_ms"] = m.p90s
	res.Samples["cpu_us_per_tuple"] = m.cpus
	res.Samples["setup_s"] = setups
	res.Info["latency_samples"] = float64(len(m.all))
	res.Info["latency_p99_ms"] = quantile(m.all, 0.99)
	res.Info["latency_max_ms"] = quantile(m.all, 1)
	res.Info["gc_pause_total_ms"] = run.gcPauseMS
	res.Info["heap_end_mb"] = run.heapEndMB
	res.Info["ctl_stalls"] = float64(run.ctlStalls)
	run.audit(res)
	return res
}
