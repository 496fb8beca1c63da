package fuzz

import (
	"fmt"

	"borealis/internal/scenario"
)

// Mutate derives a new valid spec from a checked-in one by applying one
// to three random edits — the shrinker's reductions run in reverse.
// Where Shrink drops faults, splices out nodes, and lowers scalars,
// Mutate perturbs and duplicates fault schedules, inserts relay nodes,
// and rescales rates and replica counts, exploring the neighborhood of
// specs that already found (or pinned) real bugs. Every edit is
// re-validated; an edit that produces an invalid spec is retried with
// fresh draws and eventually skipped, so the result is always valid.
//
// Mutation preserves the oracle soundness argument rather than GenSpec's
// stronger quiet-tail construction: a perturbed fault may heal too late
// for the structural oracles, in which case Check conditions them off
// (quietAtEnd) and the Definition 1 audit — valid at any prefix — keeps
// watching. Deterministic: same base + same seed ⇒ same mutant.
func Mutate(base *scenario.Spec, seed int64) *scenario.Spec {
	r := newRNG(seed)
	cur := base.Clone()
	cur.Seed = seed
	cur.Name = fmt.Sprintf("%s-m%x", base.Name, uint64(seed))
	cur.Description = ""
	edits := 1 + r.intn(3)
	for e := 0; e < edits; e++ {
		for attempt := 0; attempt < 4; attempt++ {
			c := cur.Clone()
			mutateOnce(r, c)
			if c.Validate() == nil {
				cur = c
				break
			}
		}
	}
	return cur
}

// mutateOnce applies one random edit in place. The caller re-validates.
func mutateOnce(r *rng, s *scenario.Spec) {
	switch u := r.f64(); {
	case u < 0.22:
		jitterFault(r, s)
	case u < 0.34:
		duplicateFault(r, s)
	case u < 0.46:
		addFault(r, s)
	case u < 0.50:
		addPartitionFault(r, s)
	case u < 0.58:
		dropFault(r, s)
	case u < 0.70:
		insertRelayNode(r, s)
	case u < 0.80:
		bumpReplicas(r, s)
	case u < 0.90:
		flipPolicy(r, s)
	default:
		rescaleRate(r, s)
	}
}

// jitterFault moves one fault's onset or stretches its duration.
func jitterFault(r *rng, s *scenario.Spec) {
	if len(s.Faults) == 0 {
		return
	}
	f := &s.Faults[r.intn(len(s.Faults))]
	if r.chance(0.5) {
		at := round1(f.AtS * r.rangeF(0.5, 1.5))
		if at < 2 {
			at = 2
		}
		f.AtS = at
	} else if f.DurationS > 0 {
		f.DurationS = round1(f.DurationS * r.rangeF(0.5, 1.8))
	}
}

// duplicateFault replays an existing fault at a shifted time — the
// double-fault overlap family (a heal racing a second onset) that found
// the resubscribe-replay and in-service-batch bugs.
func duplicateFault(r *rng, s *scenario.Spec) {
	if len(s.Faults) == 0 {
		return
	}
	f := s.Faults[r.intn(len(s.Faults))]
	at := round1(r.rangeF(2, s.DurationS*0.7))
	f.AtS = at
	s.Faults = append(s.Faults, f)
}

// addFault draws a fresh fault from the generator's distribution,
// honoring its quiet-tail window so the addition keeps the structural
// oracles armed when the base schedule already did.
func addFault(r *rng, s *scenario.Spec) {
	if len(s.Nodes) == 0 || len(s.Sources) == 0 {
		return
	}
	permanent := map[string]int{}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == "crash" && f.DurationS == 0 {
			permanent[f.Node]++
		}
	}
	if f := genFault(r, s, settleTailS(s), permanent); f != nil {
		s.Faults = append(s.Faults, *f)
	}
}

// addPartitionFault forces a link-level fault into the schedule — the
// overlap of a partition with an existing crash/flap is exactly the fault
// combination the cluster transport's chaos layer exists to survive, so
// the mutator reaches for it far more often than addFault's unbiased draw
// would.
func addPartitionFault(r *rng, s *scenario.Spec) {
	if len(s.Nodes) == 0 || len(s.Sources) == 0 {
		return
	}
	if f := genPartitionFault(r, s, settleTailS(s)); f != nil {
		s.Faults = append(s.Faults, *f)
	}
}

// dropFault removes one fault, probing which half of a compound
// schedule carries the signal.
func dropFault(r *rng, s *scenario.Spec) {
	if len(s.Faults) == 0 {
		return
	}
	i := r.intn(len(s.Faults))
	s.Faults = append(s.Faults[:i], s.Faults[i+1:]...)
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
}

// insertRelayNode is spliceNode in reverse: a new node is wired between
// the client and its input, lengthening the correction path by one
// SUnion stage (deeper cascades are where Definition 1 goes to die).
func insertRelayNode(r *rng, s *scenario.Spec) {
	target := s.ClientInput()
	if target == "" {
		return
	}
	name := ""
	for i := 1; ; i++ {
		name = fmt.Sprintf("mx%d", i)
		if !nameTaken(s, name) {
			break
		}
	}
	n := scenario.NodeSpec{Name: name, Inputs: []string{target}}
	if r.chance(0.4) {
		d := round1(r.rangeF(1, 6))
		n.DelayS = &d
	}
	if r.chance(0.3) {
		n.Stabilization = pick(r, policies)
	}
	s.Nodes = append(s.Nodes, n)
	s.Client.Input = name
}

// bumpReplicas moves one node's replica count within [1, 3].
func bumpReplicas(r *rng, s *scenario.Spec) {
	if len(s.Nodes) == 0 {
		return
	}
	n := &s.Nodes[r.intn(len(s.Nodes))]
	rep := s.ReplicasOf(n)
	if r.chance(0.5) && rep < 3 {
		rep++
	} else if rep > 1 {
		rep--
	}
	n.Replicas = &rep
}

// flipPolicy rotates one node's failure or stabilization policy.
func flipPolicy(r *rng, s *scenario.Spec) {
	if len(s.Nodes) == 0 {
		return
	}
	n := &s.Nodes[r.intn(len(s.Nodes))]
	if r.chance(0.5) {
		n.FailurePolicy = pick(r, policies)
	} else {
		n.Stabilization = pick(r, policies)
	}
}

// rescaleRate scales one source group's aggregate rate.
func rescaleRate(r *rng, s *scenario.Spec) {
	if len(s.Sources) == 0 {
		return
	}
	ss := &s.Sources[r.intn(len(s.Sources))]
	rate := round1(ss.Rate * r.rangeF(0.6, 1.6))
	if rate < 30 {
		rate = 30
	}
	ss.Rate = rate
	if ss.Workload.ToRate > 0 {
		ss.Workload.ToRate = round1(ss.Workload.ToRate * r.rangeF(0.6, 1.6))
	}
}

// nameTaken reports whether a node name would collide with any existing
// node, source group, or expanded source member stream.
func nameTaken(s *scenario.Spec, name string) bool {
	for i := range s.Nodes {
		if s.Nodes[i].Name == name {
			return true
		}
	}
	for i := range s.Sources {
		if refersToSource(&s.Sources[i], name) {
			return true
		}
	}
	return false
}
