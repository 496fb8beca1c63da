package fuzz

import (
	"fmt"
	"math"

	"borealis/internal/scenario"
)

// round1 keeps generated times and rates to one decimal so minimized
// specs stay readable and JSON round-trips exactly.
func round1(v float64) float64 { return math.Round(v*10) / 10 }

// GenSpec deterministically generates one valid scenario spec from a
// seed: a layered DAG of 1-5 replicated node groups over 1-2 source
// groups, per-source workload shapes, and a fault schedule of up to 4
// faults mixing every fault kind the scenario engine knows.
//
// Generated specs are valid by construction (GenSpec panics if its own
// output fails Validate — that is a generator bug, not an input error)
// and satisfy one extra structural property the oracles rely on: every
// fault heals at least settleTailS before the end of the run, so a
// healthy deployment has gone fully quiet — stable, no buffered
// tentative data — by the final instant. Fault durations are biased
// toward the availability bound D (the paper's interesting region:
// failures comparable to the suspension window), which is exactly the
// band where the PR 3 masked-heal wedge lived.
func GenSpec(seed int64) *scenario.Spec {
	r := newRNG(seed)
	s := &scenario.Spec{
		Name:              fmt.Sprintf("fuzz-%d", seed),
		Seed:              seed,
		DurationS:         float64(20 + 5*r.intn(5)),
		VerifyConsistency: true,
	}
	s.Defaults.DelayS = round1(r.rangeF(1.5, 6))
	s.Defaults.Replicas = 2

	genSources(r, s)
	genNodes(r, s)
	s.Client = scenario.ClientSpec{Input: s.Nodes[len(s.Nodes)-1].Name, DelayMS: 50}
	genFaults(r, s)

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generated spec %d is invalid: %v", seed, err))
	}
	return s
}

var (
	sourceNames = []string{"s", "t"}
	aggFns      = []string{"count", "sum", "avg", "min", "max"}
	policies    = []string{"process", "delay", "suspend"}
)

func genSources(r *rng, s *scenario.Spec) {
	groups := 1 + r.intn(2)
	for g := 0; g < groups; g++ {
		ss := scenario.SourceSpec{
			Name:  sourceNames[g],
			Count: 1 + r.intn(3),
			Rate:  float64(60 + 20*r.intn(10)),
		}
		if r.chance(0.25) {
			ss.Distribution = "zipf"
			ss.Skew = round1(r.rangeF(0.8, 1.5))
		}
		switch u := r.f64(); {
		case u < 0.5: // constant
		case u < 0.75:
			ss.Workload = scenario.WorkloadSpec{
				Kind:        "bursty",
				PeriodS:     float64(2 + r.intn(4)),
				Factor:      float64(2 + r.intn(3)),
				Duty:        0.2,
				JitterPhase: r.chance(0.5),
			}
		default:
			ss.Workload = scenario.WorkloadSpec{
				Kind:   "ramp",
				ToRate: round1(ss.Rate * r.rangeF(0.5, 2)),
				OverS:  round1(s.DurationS * 0.8),
			}
		}
		s.Sources = append(s.Sources, ss)
	}
}

func genNodes(r *rng, s *scenario.Spec) {
	count := 1 + r.intn(5)
	for i := 0; i < count; i++ {
		n := scenario.NodeSpec{Name: fmt.Sprintf("n%d", i+1)}
		// Inputs reference only sources and strictly earlier nodes, so the
		// graph is a DAG by construction. Bias toward chains (the deepest
		// correction paths) with occasional extra fan-in edges.
		if i == 0 {
			n.Inputs = []string{s.Sources[r.intn(len(s.Sources))].Name}
		} else if r.chance(0.8) {
			n.Inputs = []string{s.Nodes[i-1].Name}
		} else {
			n.Inputs = []string{s.Nodes[r.intn(i)].Name}
		}
		if r.chance(0.35) {
			extra := r.intn(len(s.Sources) + i)
			var name string
			if extra < len(s.Sources) {
				name = s.Sources[extra].Name
			} else {
				name = s.Nodes[extra-len(s.Sources)].Name
			}
			dup := false
			for _, in := range n.Inputs {
				dup = dup || in == name
			}
			if !dup {
				n.Inputs = append(n.Inputs, name)
			}
		}
		if r.chance(0.3) {
			rep := 1 + r.intn(3)
			n.Replicas = &rep
		}
		if r.chance(0.4) {
			d := round1(r.rangeF(1, 6))
			n.DelayS = &d
		}
		if len(n.Inputs) >= 2 && r.chance(0.15) {
			n.Cascade = true
		}
		if r.chance(0.25) {
			n.FailurePolicy = pick(r, policies)
		}
		if r.chance(0.25) {
			n.Stabilization = pick(r, policies)
		}
		genOperators(r, s, &n)
		s.Nodes = append(s.Nodes, n)
	}
}

func genOperators(r *rng, s *scenario.Spec, n *scenario.NodeSpec) {
	for k := r.intn(3); k > 0; k-- {
		var op scenario.OperatorSpec
		switch u := r.f64(); {
		case u < 0.35:
			op = scenario.OperatorSpec{Kind: "filter", Modulo: int64(2 + r.intn(4))}
		case u < 0.65:
			op = scenario.OperatorSpec{Kind: "map", Scale: int64(2 + r.intn(2))}
		case u < 0.85:
			op = scenario.OperatorSpec{
				Kind:     "aggregate",
				Fn:       pick(r, aggFns),
				WindowMS: float64(200 + 100*r.intn(9)),
			}
			if r.chance(0.3) {
				op.SlideMS = op.WindowMS / 2
			}
		default:
			if len(s.ExpandInputs(n)) < 2 {
				op = scenario.OperatorSpec{Kind: "filter", Modulo: 2}
			} else {
				op = scenario.OperatorSpec{Kind: "join", WindowMS: float64(200 + 100*r.intn(4))}
			}
		}
		n.Operators = append(n.Operators, op)
	}
}

func genFaults(r *rng, s *scenario.Spec) {
	tail := settleTailS(s)
	permanent := map[string]int{} // group → permanent crashes so far
	for k := r.intn(5); k > 0; k-- {
		f := genFault(r, s, tail, permanent)
		if f != nil {
			s.Faults = append(s.Faults, *f)
		}
	}
}

// genFault draws one fault whose heal lands at least settleTailS before
// the end of the run; nil when the drawn shape cannot fit the window.
func genFault(r *rng, s *scenario.Spec, tail float64, permanent map[string]int) *scenario.FaultSpec {
	// window returns a start time for a fault that heals dur after onset,
	// or a negative number when it cannot fit.
	window := func(dur float64) float64 {
		last := s.DurationS - tail - dur
		if last < 2 {
			return -1
		}
		// Floor, not round: rounding up could push the heal past the
		// quiet-tail boundary by a fraction of a second.
		return math.Floor(r.rangeF(2, last)*10) / 10
	}
	nodeOf := func() (*scenario.NodeSpec, int) {
		n := &s.Nodes[r.intn(len(s.Nodes))]
		return n, r.intn(s.ReplicasOf(n))
	}
	switch u := r.f64(); {
	case u < 0.28: // disconnect, biased toward the D-band
		member := sourceTarget(r, s)
		dur := round1(r.rangeF(2, 6))
		if r.chance(0.4) {
			d := s.DelayOf(&s.Nodes[r.intn(len(s.Nodes))])
			dur = round1(d * r.rangeF(0.8, 1.05))
		}
		at := window(dur)
		if at < 0 {
			return nil
		}
		return &scenario.FaultSpec{Kind: "disconnect", Source: member, AtS: at, DurationS: dur}
	case u < 0.5: // crash (+restart unless a permanent crash is safe)
		n, rep := nodeOf()
		if r.chance(0.12) && permanent[n.Name] < s.ReplicasOf(n)-1 {
			at := window(permCrashSettleS)
			if at < 0 {
				return nil
			}
			permanent[n.Name]++
			return &scenario.FaultSpec{Kind: "crash", Node: n.Name, Replica: rep, AtS: at}
		}
		dur := round1(r.rangeF(2, 6))
		at := window(dur)
		if at < 0 {
			return nil
		}
		return &scenario.FaultSpec{Kind: "crash", Node: n.Name, Replica: rep, AtS: at, DurationS: dur}
	case u < 0.64: // flap
		n, rep := nodeOf()
		period := round1(r.rangeF(2, 4))
		count := 2 + r.intn(2)
		down := round1(period * 0.4)
		at := window(float64(count-1)*period + down)
		if at < 0 {
			return nil
		}
		return &scenario.FaultSpec{
			Kind: "flap", Node: n.Name, Replica: rep,
			AtS: at, DurationS: down, PeriodS: period, Count: count,
		}
	case u < 0.86: // partition
		return genPartitionFault(r, s, tail)
	default: // stall_boundaries
		member := sourceTarget(r, s)
		dur := round1(r.rangeF(2, 5))
		at := window(dur)
		if at < 0 {
			return nil
		}
		return &scenario.FaultSpec{Kind: "stall_boundaries", Source: member, AtS: at, DurationS: dur}
	}
}

// genPartitionFault draws one partition fault honoring the quiet-tail
// window; nil when the window cannot fit or the endpoint draw degenerates.
func genPartitionFault(r *rng, s *scenario.Spec, tail float64) *scenario.FaultSpec {
	dur := round1(r.rangeF(2, 5))
	last := s.DurationS - tail - dur
	if last < 2 {
		return nil
	}
	at := math.Floor(r.rangeF(2, last)*10) / 10
	from := endpointTarget(r, s)
	to := endpointTarget(r, s)
	if from == to {
		return nil
	}
	return &scenario.FaultSpec{Kind: "partition", From: from, To: to, AtS: at, DurationS: dur}
}

// GenClusterSpec generates a spec shaped for a real multi-process cluster
// of the given worker count: its distinct process-fault targets fit the
// worker budget (cluster.Plan dedicates one worker per target and needs at
// least one shared worker besides), and the schedule always carries at
// least one partition fault — the kind the boss translates into real
// link-level blocking on the TCP fabric. Deterministic in (seed, workers).
func GenClusterSpec(seed int64, workers int) *scenario.Spec {
	s := GenSpec(seed)
	s.Name = fmt.Sprintf("fuzz-cluster-%d", seed)
	maxTargets := workers - 1
	if maxTargets < 0 {
		maxTargets = 0
	}
	seen := map[string]bool{}
	kept := s.Faults[:0]
	for _, f := range s.Faults {
		switch f.Kind {
		case "crash", "restart", "flap":
			id := fmt.Sprintf("%s/%d", f.Node, f.Replica)
			if !seen[id] && len(seen) >= maxTargets {
				continue
			}
			seen[id] = true
		}
		kept = append(kept, f)
	}
	s.Faults = kept
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	r := newRNG(seed ^ 0x5eed)
	tail := settleTailS(s)
	for i := 0; i < 64 && !hasPartitionFault(s); i++ {
		if f := genPartitionFault(r, s, tail); f != nil {
			s.Faults = append(s.Faults, *f)
		}
	}
	if !hasPartitionFault(s) {
		// A deep chain's settle tail can leave no window; stretch the run
		// until one fits (the quiet-tail property is preserved either way).
		s.DurationS = math.Ceil(tail) + 10
		for i := 0; i < 64 && !hasPartitionFault(s); i++ {
			if f := genPartitionFault(r, s, tail); f != nil {
				s.Faults = append(s.Faults, *f)
			}
		}
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generated cluster spec %d is invalid: %v", seed, err))
	}
	return s
}

func hasPartitionFault(s *scenario.Spec) bool {
	for i := range s.Faults {
		if s.Faults[i].Kind == "partition" {
			return true
		}
	}
	return false
}

// sourceTarget picks a concrete fault target: a single expanded member
// of a random source group most of the time, the whole group
// occasionally.
func sourceTarget(r *rng, s *scenario.Spec) string {
	ss := &s.Sources[r.intn(len(s.Sources))]
	if ss.Count > 1 && !r.chance(0.2) {
		return fmt.Sprintf("%s%d", ss.Name, 1+r.intn(ss.Count))
	}
	return ss.Name
}

// endpointTarget picks a partition endpoint: a node group, one replica,
// a source member, or the client.
func endpointTarget(r *rng, s *scenario.Spec) string {
	switch u := r.f64(); {
	case u < 0.4:
		return s.Nodes[r.intn(len(s.Nodes))].Name
	case u < 0.65:
		n := &s.Nodes[r.intn(len(s.Nodes))]
		return fmt.Sprintf("%s/%d", n.Name, r.intn(s.ReplicasOf(n)))
	case u < 0.9:
		return sourceTarget(r, s)
	default:
		return "client"
	}
}
