package main

import (
	"fmt"
	"hash/fnv"

	"borealis/internal/scenario"
)

// Workload generator: a pure function of (name, seed) returning the
// scenario.Spec the system runs — the system never sees the seed, only the
// generated spec. Shape, total offered rate, duration and fault times are
// fixed per workload so numbers compare across seeds; the seed sets
// spec.seed and, inside each node, the order of the map/filter operators
// and the map scales. Filters pass everything and maps keep the tuple
// count, so the work per repetition does not depend on what was drawn.
//
// The per-source split of the total rate is a distribution parameter (the
// idea of SNIPPETS.md's distribution_factory) but a fixed one, zipf with
// exponent 1: drawing the exponent from the seed moved
// alloc_bytes_per_tuple by 4% between seeds — the sources' logs grow by
// doubling, so which capacity class each log ends in follows its share —
// which is most of that metric's 5% bound.

// Simulated lengths of the virtual workloads, chosen so one repetition
// takes about a wall second on the reference box and the 25 s budget holds
// twenty-five or more of them. chain_recovery needs the quiet tail after its faults.
var virtualDurationS = map[string]float64{
	"chain_stateless": 10,
	"join_aggregate":  30,
	"chain_recovery":  30,
}

// recoveryRate is the total offered rate of chain_recovery: lower than the
// fault-free chain's so a repetition that replays five seconds of backlog
// through the per-tuple correction path still takes about a wall second.
const recoveryRate = 10000

// chainRate is the total offered rate of the chain workloads, tuples/s.
const chainRate = 60000

// rng is splitmix64: tiny and identical on every platform.
type rng struct{ state uint64 }

func newRNG(name string, seed int64) *rng {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &rng{state: h.Sum64() ^ (uint64(seed) * 0x9E3779B97F4A7C15)}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// operatorMix draws one node's mid-chain operators: nMap maps and nFilter
// pass-all filters on the given payload field, in seed-drawn order, with
// seed-drawn map scales.
func operatorMix(r *rng, field, nMap, nFilter int) []scenario.OperatorSpec {
	scales := []int64{2, 3, 5, 7}
	ops := make([]scenario.OperatorSpec, 0, nMap+nFilter)
	for i := 0; i < nMap; i++ {
		ops = append(ops, scenario.OperatorSpec{Kind: "map", Field: field, Scale: scales[r.intn(len(scales))]})
	}
	for i := 0; i < nFilter; i++ {
		ops = append(ops, scenario.OperatorSpec{Kind: "filter", Field: field, Modulo: 1})
	}
	for i := len(ops) - 1; i > 0; i-- { // Fisher-Yates
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// chainNodes builds a levels-deep chain n1 <- n2 <- ... fed by source group
// "s", with five map/filter operators per node.
func chainNodes(r *rng, levels, nMap, nFilter int) []scenario.NodeSpec {
	nodes := make([]scenario.NodeSpec, levels)
	for i := range nodes {
		in := "s"
		if i > 0 {
			in = fmt.Sprintf("n%d", i)
		}
		nodes[i] = scenario.NodeSpec{
			Name:      fmt.Sprintf("n%d", i+1),
			Inputs:    []string{in},
			Operators: operatorMix(r, 0, nMap, nFilter),
		}
	}
	return nodes
}

// skewedSources is the three-member source group of the chain workloads,
// splitting rate 6:3:2 (zipf, exponent 1).
func skewedSources(rate float64) []scenario.SourceSpec {
	return []scenario.SourceSpec{{Name: "s", Count: 3, Rate: rate, Distribution: "zipf", Skew: 1}}
}

// Generate returns the spec of one workload. durationS overrides the run
// length where it is positive (the wire workload's length follows the
// -seconds budget; tests shorten the virtual ones).
func Generate(name string, seed int64, durationS float64) (*scenario.Spec, error) {
	r := newRNG(name, seed)
	s := &scenario.Spec{
		Name:      name,
		Seed:      seed,
		DurationS: virtualDurationS[name],
		Defaults:  scenario.Defaults{DelayS: 2, Replicas: 2, AckIntervalMS: 250},
		Client:    scenario.ClientSpec{DelayMS: 50},
	}
	switch name {
	case "chain_stateless":
		s.Sources = skewedSources(chainRate)
		s.Nodes = chainNodes(r, 6, 2, 3)
	case "join_aggregate":
		// Both branches run at exactly the same rate: the join key is the
		// per-source sequence number (payload field 0), so tuple k of one
		// side meets tuple k of the other inside the window only while
		// the two sources stay in step. The seed therefore draws the
		// operator order and scales but not the rate split.
		s.Sources = []scenario.SourceSpec{{Name: "orders", Rate: 3000}, {Name: "payments", Rate: 3000}}
		group := 1
		s.Nodes = []scenario.NodeSpec{
			{Name: "no", Inputs: []string{"orders"}, Operators: operatorMix(r, 1, 1, 1)},
			{Name: "np", Inputs: []string{"payments"}, Operators: operatorMix(r, 1, 1, 1)},
			{Name: "nj", Inputs: []string{"no", "np"}, Operators: []scenario.OperatorSpec{
				{Kind: "join", WindowMS: 200, LeftKey: 0, RightKey: 0, LeftInputs: 1}}},
			{Name: "na", Inputs: []string{"nj"}, Operators: []scenario.OperatorSpec{
				{Kind: "aggregate", Fn: "sum", Field: 0, WindowMS: 1000, SlideMS: 250, GroupField: &group}}},
		}
	case "chain_recovery":
		s.Sources = skewedSources(recoveryRate)
		s.Nodes = chainNodes(r, 3, 2, 3)
		s.Defaults.Capacity = 4 * recoveryRate // finite, so replay takes virtual time
		// No acknowledgments, so output buffers keep whole streams: a
		// restarted replica rebuilds from its upstreams' buffers (§4.5),
		// and with ack truncation on, this very schedule fails the
		// Definition 1 audit (README, findings).
		s.Defaults.AckIntervalMS = 0
		s.Faults = []scenario.FaultSpec{
			{Kind: "disconnect", Source: "s2", AtS: 8, DurationS: 5},
			{Kind: "crash", Node: "n2", Replica: 0, AtS: 10, DurationS: 4},
		}
	case "wire_steady":
		// Table IV/V's small-boundary corner: 10 ms buckets and
		// boundaries make many frames per second.
		s.Sources = skewedSources(chainRate)
		s.Nodes = chainNodes(r, 2, 1, 1)
		s.Defaults.BucketMS, s.Defaults.BoundaryMS = 10, 10
		s.DurationS = 20
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if durationS > 0 {
		s.DurationS = durationS
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("generated spec for %s: %w", name, err)
	}
	return s, nil
}
