package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"borealis/internal/deploy"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
)

// Result is one workload's measurement: the contract's correctness and
// operation counts, the metric values by name, and the samples behind the
// timings for the human report.
type Result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted uint64
	Failed    uint64
	// Failures lists why operations failed or checks did not pass.
	Failures []string
	Metrics  map[string]float64
	// Samples holds the per-repetition (or per-window) values behind each
	// timing metric, for quartiles and counts in the human output.
	Samples map[string][]float64
	// Info carries deterministic facts printed beside the metrics
	// (processed tuples per repetition, protocol counters).
	Info map[string]float64
	// Stack is the "where does a tuple's time go" table (-trace 1).
	Stack []stackRow
}

func newResult(w *Workload, seed int64) *Result {
	return &Result{
		Workload: w.Name, Seed: seed, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string][]float64{}, Info: map[string]float64{},
	}
}

// fail records a failed check; n operations are counted as failed (at
// least one, so a failed check can never read as a clean run).
func (r *Result) fail(n uint64, format string, args ...any) {
	r.Correct = false
	if n == 0 {
		n = 1
	}
	r.Failed += n
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

var errWatchdog = errors.New("watchdog: repetition overran its deadline")

// guarded runs fn under a deadline and turns a panic into an error, so a
// wedged or crashing repetition is counted as failed operations instead of
// hanging the benchmark. After a watchdog overrun fn's goroutine is still
// running: the caller must stop measuring and report.
func guarded(deadline time.Duration, fn func() error) error {
	done := make(chan error, 1) // buffered: fn's result is dropped after an overrun
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		done <- fn()
	}()
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errWatchdog
	}
}

// repSample is one timed repetition of a virtual workload.
type repSample struct {
	setupS    float64
	wallS     float64
	cpuS      float64
	allocB    uint64
	processed uint64
	produced  uint64
	sliceMS   []float64
	gcPauseMS float64
	heapEndMB float64
}

// processedTuples sums engine-processed tuples over every replica.
func processedTuples(dep *deploy.Deployment) uint64 {
	var n uint64
	for _, row := range dep.Nodes {
		for _, nd := range row {
			if nd != nil {
				n += nd.Engine().Processed
			}
		}
	}
	return n
}

func producedTuples(dep *deploy.Deployment) uint64 {
	var n uint64
	for _, s := range dep.Sources {
		n += s.Produced
	}
	return n
}

// virtualRep generates the spec, builds it (the set-up sample) and times
// Start + RunFor on a VirtualClock with tracing off and the client audit
// stripped. The run is driven in one-virtual-second slices so each slice's
// wall time is a latency sample; slicing RunFor does not change what the
// simulator executes. wrap, when non-nil, decorates the runtime (the
// traced run).
func virtualRep(name string, seed int64, durationS float64, wrap func(rtpkg.Runtime) rtpkg.Runtime, onBuilt func(*deploy.Deployment)) (repSample, error) {
	var s repSample
	t0 := time.Now()
	spec, err := Generate(name, seed, durationS)
	if err != nil {
		return s, err
	}
	opts := scenario.Options{NoAudit: true}
	if wrap != nil {
		opts.Runtime = wrap(rtpkg.NewVirtual())
	}
	dep, err := scenario.Build(spec, opts)
	if err != nil {
		return s, err
	}
	s.setupS = time.Since(t0).Seconds()
	if onBuilt != nil {
		onBuilt(dep)
	}
	slices := int(spec.DurationS)
	s.sliceMS = make([]float64, 0, slices)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	start := time.Now()
	dep.Start()
	prev := start
	for i := 0; i < slices; i++ {
		dep.RunFor(1e6)
		now := time.Now()
		s.sliceMS = append(s.sliceMS, float64(now.Sub(prev).Nanoseconds())/1e6)
		prev = now
	}
	s.wallS = prev.Sub(start).Seconds()
	s.cpuS = (cpuTime() - c0).Seconds()
	runtime.ReadMemStats(&m1)
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	s.heapEndMB = float64(m1.HeapAlloc) / (1 << 20)
	s.processed = processedTuples(dep)
	s.produced = producedTuples(dep)
	return s, nil
}

// virtualSetups repeats the set-up of a virtual workload — spec generation
// plus scenario.Build, up to but excluding Start — and returns each one's
// length in seconds.
func virtualSetups(name string, seed int64) ([]float64, error) {
	defer pauseGC()()
	out := make([]float64, 0, setupSamples)
	for i := -setupWarmups; i < setupSamples; i++ {
		t0 := time.Now()
		spec, err := Generate(name, seed, 0)
		if err != nil {
			return nil, err
		}
		if _, err := scenario.Build(spec, scenario.Options{NoAudit: true}); err != nil {
			return nil, err
		}
		if i >= 0 {
			out = append(out, time.Since(t0).Seconds())
		}
		if i == -1 {
			runtime.GC()
		}
	}
	return out, nil
}

// pauseGC switches the collector off until the returned function is called.
// Set-ups are timed with it off: one takes a fraction of a millisecond, and
// whether a collector cycle lands in it depends on the heap whatever ran
// before left behind, not on the set-up.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}
}

// minReps is the fewest timed repetitions a virtual workload reports on,
// whatever the time budget.
const minReps = 3

// runVirtual measures one virtual workload for about budget of wall time:
// one discarded warm-up repetition, then timed repetitions until the budget
// is spent, then the audited check run outside the timed section.
func runVirtual(w *Workload, seed int64, budget time.Duration) *Result {
	res := newResult(w, seed)
	var warm repSample
	var setups []float64
	err := guarded(90*time.Second, func() (err error) {
		if setups, err = virtualSetups(w.Name, seed); err != nil {
			return err
		}
		warm, err = virtualRep(w.Name, seed, 0, nil, nil)
		return err
	})
	if err != nil {
		res.Attempted = 1
		res.fail(1, "warm-up repetition: %v", err)
		return res
	}
	deadline := time.Duration(10*warm.wallS*float64(time.Second)) + 10*time.Second
	var reps []repSample
	began := time.Now()
	for len(reps) < minReps || time.Since(began) < budget {
		var s repSample
		err := guarded(deadline, func() (err error) {
			s, err = virtualRep(w.Name, seed, 0, nil, nil)
			return err
		})
		if err == nil && s.processed != warm.processed {
			err = fmt.Errorf("processed-tuple count drifted across repetitions: %d then %d", warm.processed, s.processed)
		}
		if err != nil {
			res.Attempted += warm.produced
			res.fail(warm.produced, "repetition %d: %v", len(reps)+1, err)
			if errors.Is(err, errWatchdog) {
				return res // the overrun goroutine is still running; stop measuring
			}
			break
		}
		reps = append(reps, s)
	}
	if len(reps) > 0 {
		var tps, cpu, alloc, slices []float64
		for _, s := range reps {
			tps = append(tps, float64(s.processed)/s.wallS)
			cpu = append(cpu, s.cpuS*1e6/float64(s.processed))
			alloc = append(alloc, float64(s.allocB)/float64(s.processed))
			slices = append(slices, s.sliceMS...)
		}
		sort.Float64s(slices)
		res.Metrics["tuples_per_s"] = median(tps)
		res.Metrics["latency_p50_ms"] = quantile(slices, 0.5)
		res.Metrics["latency_p90_ms"] = quantile(slices, 0.9)
		res.Metrics["cpu_us_per_tuple"] = median(cpu)
		res.Metrics["alloc_bytes_per_tuple"] = median(alloc)
		res.Metrics["setup_s"] = median(setups)
		res.Samples["tuples_per_s"] = tps
		res.Samples["latency_p50_ms"] = slices
		res.Samples["latency_p90_ms"] = slices
		res.Samples["cpu_us_per_tuple"] = cpu
		res.Samples["alloc_bytes_per_tuple"] = alloc
		res.Samples["setup_s"] = setups
		res.Info["processed_tuples_per_repetition"] = float64(warm.processed)
		res.Info["repetitions"] = float64(len(reps))
	}
	checkVirtual(w, seed, res)
	return res
}

// checkVirtual is the audited check run, outside the timed section: the
// workload's spec through scenario.Run with the Definition 1 audit against
// the fault-free reference. It sets the operation counts and, on a failed
// check, the failures.
func checkVirtual(w *Workload, seed int64, res *Result) *scenario.Report {
	var rep *scenario.Report
	spec, err := Generate(w.Name, seed, 0)
	if err == nil {
		spec.VerifyConsistency = true
		err = guarded(120*time.Second, func() (err error) {
			rep, err = scenario.Run(spec, scenario.Options{})
			return err
		})
	}
	if err != nil {
		res.Attempted++
		res.fail(1, "check run: %v", err)
		return nil
	}
	var produced uint64
	for _, s := range rep.Sources {
		produced += s.Produced
	}
	res.Attempted += produced
	c := rep.Consistency
	switch {
	case c == nil:
		res.fail(produced, "check run: no consistency audit in the report")
	case !c.OK:
		res.fail(uint64(c.RefStable-c.Compared), "check run: Definition 1 audit failed: %s", c.Reason)
	case c.GotStable < c.RefStable:
		// The audit is a prefix comparison; a stable view shorter than
		// the reference at end of run is missing tuples.
		res.fail(uint64(c.RefStable-c.GotStable), "check run: stable view has %d tuples, fault-free reference %d", c.GotStable, c.RefStable)
	}
	if rep.Client.StableDuplicates != 0 {
		res.fail(rep.Client.StableDuplicates, "check run: %d stable duplicates", rep.Client.StableDuplicates)
	}
	if len(spec.Faults) == 0 && rep.Availability.Violations != 0 {
		res.fail(rep.Availability.Violations, "check run: %d availability violations on a fault-free workload", rep.Availability.Violations)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Info["protocol.procnew_max_s"] = rep.Client.MaxLatencyS
	res.Info["protocol.stabilization_s"] = rep.Stabilization.LatencyS
	res.Info["protocol.tentative_tuples"] = float64(rep.Client.Tentative)
	return rep
}
