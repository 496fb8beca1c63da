package scenario

import (
	"fmt"
	"math"

	"borealis/internal/deploy"
	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/operator"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/source"
)

// splitmix64 is the scenario PRNG: tiny, fully deterministic across
// platforms, and stateless enough that each consumer derives its own
// stream from (seed, index) without ordering coupling.
type splitmix64 struct{ state uint64 }

func newPRNG(seed, stream int64) *splitmix64 {
	return &splitmix64{state: uint64(seed) ^ (uint64(stream) * 0x9E3779B97F4A7C15)}
}

func (p *splitmix64) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (p *splitmix64) float64() float64 { return float64(p.next()>>11) / (1 << 53) }

// run is one compiled scenario instance: a deployment plus everything the
// report needs that the deployment does not know (bound, fault horizon,
// per-delivery counters).
type run struct {
	spec       *Spec
	dep        *deploy.Deployment
	quick      bool
	durationUS int64
	boundUS    int64

	// Per-delivery metrics, collected through the client hook.
	maxSTime      int64
	violations    uint64
	maxExcessUS   int64
	lastRecDoneUS int64

	// depthSeries collects the per-replica queue-depth samples, indexed
	// by flattened replica ordinal (group build order, then replica) —
	// the same order the report walks.
	depthSeries [][]int
}

// queueSampleInterval is the fixed virtual-time cadence of the queue-depth
// time series: one sample per simulated second.
const queueSampleInterval = rtpkg.Second

// installDepthSampler schedules the queue-depth probe: at every sample
// instant one event reads each replica's instantaneous service-queue
// length. The probe only reads, so it cannot perturb the simulation — all
// other report metrics are unchanged by its presence.
func (rt *run) installDepthSampler() {
	n := rt.durationUS / queueSampleInterval
	if n <= 0 {
		return
	}
	var replicas []*node.Node
	for gi := range rt.dep.GroupNames() {
		replicas = append(replicas, rt.dep.Nodes[gi]...)
	}
	if len(replicas) == 0 {
		return
	}
	rt.depthSeries = make([][]int, len(replicas))
	for i := range rt.depthSeries {
		rt.depthSeries[i] = make([]int, 0, n)
	}
	sample := func() {
		for i, rep := range replicas {
			rt.depthSeries[i] = append(rt.depthSeries[i], rep.Engine().QueueLen())
		}
	}
	for k := int64(1); k <= n; k++ {
		rt.dep.RT.At(k*queueSampleInterval, sample)
	}
}

// quickDuration resolves the run length.
func quickDuration(s *Spec, quick bool) int64 {
	if !quick {
		return seconds(s.DurationS)
	}
	if s.QuickDurationS > 0 {
		return seconds(s.QuickDurationS)
	}
	return seconds(math.Min(s.DurationS, 20))
}

// memberRates splits a source group's aggregate rate across its members:
// uniform, or zipf-weighted (w_i ∝ 1/i^skew) for the skewed-rate shape.
func memberRates(ss *SourceSpec) []float64 {
	members := ss.members()
	rates := make([]float64, len(members))
	if ss.Distribution == "zipf" && len(members) > 1 {
		skew := ss.Skew
		if skew == 0 {
			skew = 1
		}
		var total float64
		w := make([]float64, len(members))
		for i := range w {
			w[i] = 1 / math.Pow(float64(i+1), skew)
			total += w[i]
		}
		for i := range rates {
			rates[i] = ss.Rate * w[i] / total
		}
		return rates
	}
	for i := range rates {
		rates[i] = ss.Rate / float64(len(members))
	}
	return rates
}

// nodeStream names a node's output stream.
func nodeStream(name string) string { return name + ".out" }

// nameIndex caches the spec's name→spec lookups. It is built once per
// compile and shared by every per-node resolution step; before the hoist,
// expandInputs rebuilt both maps for each node, an O(nodes × (sources +
// nodes)) term that dominated per-cell setup on wide grids.
type nameIndex struct {
	sources map[string]*SourceSpec
	nodes   map[string]*NodeSpec
}

func (s *Spec) index() *nameIndex {
	idx := &nameIndex{
		sources: make(map[string]*SourceSpec, len(s.Sources)),
		nodes:   make(map[string]*NodeSpec, len(s.Nodes)),
	}
	for i := range s.Sources {
		idx.sources[s.Sources[i].Name] = &s.Sources[i]
	}
	for i := range s.Nodes {
		idx.nodes[s.Nodes[i].Name] = &s.Nodes[i]
	}
	return idx
}

// expandInputs resolves a node's declared inputs into concrete stream
// names (source groups expand to every member).
func (idx *nameIndex) expandInputs(n *NodeSpec) []string {
	out := make([]string, 0, len(n.Inputs))
	for _, in := range n.Inputs {
		switch {
		case idx.nodes[in] != nil:
			out = append(out, nodeStream(in))
		case idx.sources[in] != nil:
			out = append(out, idx.sources[in].members()...)
		default:
			out = append(out, in) // an individual expanded member
		}
	}
	return out
}

// ExpandInputs resolves a node's declared inputs into its SUnion ports'
// stream names, in port order.
func (s *Spec) ExpandInputs(n *NodeSpec) []string { return s.index().expandInputs(n) }

// compileOperators builds the per-replica operator factory for one node.
//
// Every spec map scales the payload in the frame it is given: a payload of
// up to two values is a copy inside the tuple, and a longer one (a join
// output) is immutable once published, so the map copies it first. No
// operator needs to know what ran before it.
func compileOperators(n *NodeSpec, inputCount int) func() []operator.Operator {
	if len(n.Operators) == 0 {
		return nil
	}
	specs := append([]OperatorSpec(nil), n.Operators...)
	return func() []operator.Operator {
		ops := make([]operator.Operator, 0, len(specs))
		for i, op := range specs {
			name := fmt.Sprintf("%s%d", op.Kind, i+1)
			switch op.Kind {
			case "filter":
				mod := op.Modulo
				if mod == 0 {
					mod = 2
				}
				ops = append(ops, operator.NewFieldFilter(name, op.Field, mod))
			case "map":
				scale := op.Scale
				if scale == 0 {
					scale = 2
				}
				ops = append(ops, operator.NewFieldMap(name, op.Field, scale))
			case "aggregate":
				fn := operator.AggCount
				if op.Fn != "" {
					fn, _ = parseAggFn(op.Fn)
				}
				slide := millis(op.SlideMS)
				if slide <= 0 {
					slide = millis(op.WindowMS)
				}
				group := -1
				if op.GroupField != nil {
					group = *op.GroupField
				}
				ops = append(ops, operator.NewAggregate(name, operator.AggregateConfig{
					Size:       millis(op.WindowMS),
					Slide:      slide,
					Fn:         fn,
					ValueField: op.Field,
					GroupField: group,
				}))
			case "join":
				left := op.LeftInputs
				if left <= 0 {
					left = inputCount / 2
				}
				l32 := int32(left)
				ops = append(ops, operator.NewSJoin(name, operator.JoinConfig{
					Window:   millis(op.WindowMS),
					LeftKey:  op.LeftKey,
					RightKey: op.RightKey,
					IsLeft:   func(src int32) bool { return src < l32 },
				}))
			}
		}
		return ops
	}
}

func parseBufferMode(s string) node.BufferMode {
	switch s {
	case "block":
		return node.BufferBlock
	case "slide":
		return node.BufferSlide
	}
	return node.BufferUnbounded
}

// compile validates nothing (call Validate first); it builds the
// deployment, installs workload schedules, and — when withFaults is set —
// the fault timeline. The reference run for the consistency audit compiles
// with withFaults=false and is otherwise identical. fab and owned are nil
// for a whole single-process deployment on a fresh netsim; a cluster
// partition passes both and gets only the endpoints it owns (deploy.buildOn
// has the same convention).
func compile(exec rtpkg.Runtime, fab fabric.Fabric, owned map[string]bool, s *Spec, opts Options, withFaults bool) (*run, error) {
	rt := &run{
		spec:       s,
		quick:      opts.Quick,
		durationUS: quickDuration(s, opts.Quick),
		maxSTime:   -1,
	}
	idx := s.index()
	top := topologySpecOf(s, idx, opts.NoAudit)
	var err error
	if fab == nil {
		rt.dep, err = deploy.BuildTopologyOn(exec, top)
	} else {
		rt.dep, err = deploy.BuildPartitionOn(exec, fab, top, owned)
	}
	if err != nil {
		return nil, err
	}
	if opts.PerTuple {
		rt.dep.UseReferencePlane()
	}
	if opts.Trace != nil {
		for _, row := range rt.dep.Nodes {
			for _, rep := range row {
				rep.SetTrace(opts.Trace)
			}
		}
		rt.dep.Client.Proxy().SetTrace(opts.Trace)
	}
	rt.boundUS = availabilityBoundUS(s, idx)
	rt.installWorkloads()
	if withFaults {
		rt.installFaults(owned != nil)
	}
	if rt.dep.Client != nil {
		rt.hookClient()
	}
	if withFaults && owned == nil {
		// The queue-depth series is a probe of the single-process report:
		// partition fragments carry none, and the faultless reference run
		// never renders a report.
		rt.installDepthSampler()
	}
	return rt, nil
}

// topologySpecOf translates a validated Spec into the deployment layer's
// TopologySpec. The translation is pure — no runtime, no fabric — so the
// single-process compile and every cluster worker's partition compile share
// it and agree on the exact same wiring (the payload closure derives from
// the spec listing index i, keeping cross-partition stream content
// deterministic).
func topologySpecOf(s *Spec, idx *nameIndex, noAudit bool) deploy.TopologySpec {
	top := deploy.TopologySpec{
		BucketSize:       millis(s.Defaults.BucketMS),
		BoundaryInterval: millis(s.Defaults.BoundaryMS),
		TickInterval:     millis(s.Defaults.TickMS),
		StallTimeout:     millis(s.Defaults.StallTimeoutMS),
		KeepAlive:        millis(s.Defaults.KeepAliveMS),
		AckInterval:      millis(s.Defaults.AckIntervalMS),
		Client: deploy.TopologyClient{
			Stream:              nodeStream(s.ClientInput()),
			BucketSize:          millis(s.Client.BucketMS),
			Delay:               millis(s.Client.DelayMS),
			TentativeWait:       millis(s.Client.TentativeWaitMS),
			TentativeBoundaries: s.Client.TentativeBoundaries,
			NoAudit:             noAudit,
		},
	}
	members := 0
	for i := range s.Sources {
		members += max(s.Sources[i].Count, 1)
	}
	top.Sources = make([]deploy.TopologySource, 0, members)
	for i := range s.Sources {
		ss := &s.Sources[i]
		rates := memberRates(ss)
		for mi, m := range ss.members() {
			top.Sources = append(top.Sources, deploy.TopologySource{
				ID:               m,
				Stream:           m,
				Rate:             rates[mi],
				BoundaryInterval: millis(ss.BoundaryMS),
				LogCap:           ss.LogCap,
			})
		}
	}
	top.Groups = make([]deploy.NodeGroup, 0, len(s.Nodes))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		inputs := idx.expandInputs(n)
		var capacity float64
		if n.Capacity != nil {
			capacity = *n.Capacity
		} else {
			capacity = s.Defaults.Capacity
		}
		fail, _ := parsePolicy(firstNonEmpty(n.FailurePolicy, s.Defaults.FailurePolicy), "")
		stab, _ := parsePolicy(firstNonEmpty(n.Stabilization, s.Defaults.Stabilization), "")
		top.Groups = append(top.Groups, deploy.NodeGroup{
			Name:                n.Name,
			Output:              nodeStream(n.Name),
			Inputs:              inputs,
			Replicas:            s.ReplicasOf(n),
			Delay:               seconds(s.DelayOf(n)),
			Cascade:             n.Cascade,
			Operators:           compileOperators(n, len(inputs)),
			Capacity:            capacity,
			FailurePolicy:       fail,
			StabilizationPolicy: stab,
			TentativeWait:       millis(n.TentativeWaitMS),
			TentativeBoundaries: n.TentativeBoundaries,
			FineGrained:         n.FineGrained,
			BufferMode:          parseBufferMode(n.BufferMode),
			BufferCap:           n.BufferCap,
		})
	}
	return top
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// PathDelayS is the worst source→node path sum of SUnion delays ending at
// the named node, in seconds: how long a suspension started at a source can
// take to drain through to that node's output.
func (s *Spec) PathDelayS(node string) float64 { return pathDelayS(s, s.index(), node) }

func pathDelayS(s *Spec, idx *nameIndex, node string) float64 {
	memo := map[string]float64{}
	var path func(name string) float64
	path = func(name string) float64 {
		if v, ok := memo[name]; ok {
			return v
		}
		n := idx.nodes[name]
		var worst float64
		for _, in := range n.Inputs {
			if idx.nodes[in] != nil {
				if v := path(in); v > worst {
					worst = v
				}
			}
		}
		// A cascade node chains len(inputs)-1 SUnions in series, each
		// with bound D; a plain node has a single SUnion.
		sunions := 1.0
		if n.Cascade {
			if k := len(idx.expandInputs(n)); k > 2 {
				sunions = float64(k - 1)
			}
		}
		v := worst + s.DelayOf(n)*sunions
		memo[name] = v
		return v
	}
	return path(node)
}

// availabilityBoundUS derives the report's bound on the bare spec: the
// worst source→client path sum of SUnion delays, plus the client's own
// slack, plus the scenario's processing slack.
func availabilityBoundUS(s *Spec, idx *nameIndex) int64 {
	slack := s.AvailabilitySlackS
	if slack <= 0 {
		slack = 1
	}
	clientDelay := s.Client.DelayMS / 1e3
	if clientDelay <= 0 {
		clientDelay = 0.05
	}
	return seconds(pathDelayS(s, idx, s.ClientInput()) + clientDelay + slack)
}

// installWorkloads schedules the rate modulation of every source. Each
// member derives its own PRNG stream from (seed, member ordinal) so adding
// jitter to one source never perturbs another.
func (rt *run) installWorkloads() {
	ordinal := int64(0)
	for i := range rt.spec.Sources {
		ss := &rt.spec.Sources[i]
		for _, m := range ss.members() {
			src := rt.dep.SourceByID(m)
			if src == nil {
				// A cluster partition hosts a subset of the sources; the
				// ordinal still advances so every member keeps the same
				// PRNG stream it has in a single-process run.
				ordinal++
				continue
			}
			base := src.Rate()
			prng := newPRNG(rt.spec.Seed, ordinal)
			ordinal++
			switch ss.Workload.Kind {
			case "bursty":
				rt.installBurst(src, ss, base, prng)
			case "ramp":
				rt.installRamp(src, ss, base)
			}
		}
	}
}

// installBurst alternates the rate between factor×base (for duty×period)
// and a floor chosen so the mean rate stays at base.
func (rt *run) installBurst(src *source.Source, ss *SourceSpec, base float64, prng *splitmix64) {
	period := seconds(ss.Workload.PeriodS)
	if period <= 0 {
		period = 5 * rtpkg.Second
	}
	factor := ss.Workload.Factor
	if factor == 0 {
		factor = 4
	}
	duty := ss.Workload.Duty
	if duty == 0 {
		duty = 0.25
	}
	high := base * factor
	low := base * (1 - duty*factor) / (1 - duty)
	if low < 0 {
		low = 0
	}
	var offset int64
	if ss.Workload.JitterPhase {
		offset = int64(prng.float64() * float64(period))
	}
	up := int64(duty * float64(period))
	// The phase is cyclic: burst windows start at t ≡ offset (mod
	// period), so t=0 sits mid-cycle when offset > 0. Derive the initial
	// rate from the cycle position and only schedule toggles at positive
	// times — the jittered mean stays at base from t=0 on.
	start := offset % period
	if start != 0 {
		start -= period // most recent burst start ≤ 0
	}
	if -start < up {
		src.SetRate(high) // t=0 falls inside a burst window
	} else {
		src.SetRate(low)
	}
	for t := start; t < rt.durationUS; t += period {
		if t > 0 {
			rt.dep.RT.At(t, func() { src.SetRate(high) })
		}
		if tl := t + up; tl > 0 {
			rt.dep.RT.At(tl, func() { src.SetRate(low) })
		}
	}
}

// installRamp moves the rate linearly from base to to_rate over over_s.
// Events stop once the ramp completes (or the run ends); one final event
// lands exactly on the ramp end so the target rate is hit precisely.
func (rt *run) installRamp(src *source.Source, ss *SourceSpec, base float64) {
	over := seconds(ss.Workload.OverS)
	if over <= 0 {
		over = rt.durationUS
	}
	step := millis(ss.Workload.StepMS)
	if step <= 0 {
		step = 250 * rtpkg.Millisecond
	}
	to := ss.Workload.ToRate
	end := over
	if end > rt.durationUS {
		end = rt.durationUS
	}
	rate := func(t int64) float64 {
		frac := float64(t) / float64(over)
		if frac > 1 {
			frac = 1
		}
		return base + (to-base)*frac
	}
	for t := step; t < end; t += step {
		r := rate(t)
		rt.dep.RT.At(t, func() { src.SetRate(r) })
	}
	rEnd := rate(end)
	rt.dep.RT.At(end, func() { src.SetRate(rEnd) })
}

// installFaults schedules the fault timeline on the deployment's runtime,
// event by event in timeline order.
func (rt *run) installFaults(partition bool) {
	for _, ev := range Timeline(rt.spec, rt.quick) {
		if do := rt.eventAction(ev, partition); do != nil {
			rt.dep.RT.At(ev.AtUS, do)
		}
	}
}

// eventAction resolves a timeline event to what this run does at its
// instant, nil when the event is not this run's to execute. A cluster
// partition executes only the source-level events of sources it hosts:
// process-level events reach the target replica's dedicated worker as real
// signals from the boss, and link-level events reach every worker as the
// boss's timed LINK lines.
func (rt *run) eventAction(ev Event, partition bool) func() {
	switch ev.Kind {
	case EvCrash, EvRestart, EvBlock, EvUnblock:
		if partition {
			return nil
		}
	}
	switch ev.Kind {
	case EvCrash:
		return rt.dep.Group(ev.Node)[ev.Replica].Crash
	case EvRestart:
		return rt.dep.Group(ev.Node)[ev.Replica].Restart
	case EvBlock:
		return func() { rt.dep.Net.Partition(ev.From, ev.To) }
	case EvUnblock:
		return func() { rt.dep.Net.Heal(ev.From, ev.To) }
	}
	src := rt.dep.SourceByID(ev.Source)
	if src == nil {
		return nil // hosted by another partition
	}
	switch ev.Kind {
	case EvDisconnect:
		return src.Disconnect
	case EvReconnect:
		return src.Reconnect
	case EvStall:
		return src.StallBoundaries
	}
	return src.ResumeBoundaries
}
