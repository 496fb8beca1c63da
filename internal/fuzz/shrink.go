package fuzz

import (
	"strings"

	"borealis/internal/scenario"
)

// ShrinkResult is the outcome of minimizing a failing spec.
type ShrinkResult struct {
	// Spec is the smallest spec found that still fails the oracle.
	Spec *scenario.Spec `json:"spec"`
	// Findings are the oracle violations of the minimized spec.
	Findings []Finding `json:"findings"`
	// Runs counts the oracle re-executions the reduction spent.
	Runs int `json:"runs"`
}

// Shrink minimizes a failing spec by deterministic greedy reduction:
// structural passes first (drop faults, splice out nodes, drop sources
// and operators), then simplifications (constant workloads, default
// policies) and scalar reductions (shorter durations, lower rates,
// fewer replicas). Each candidate is re-validated and re-run; a
// reduction is kept only when the run still produces a finding of the
// same oracle kind, so the minimized spec reproduces the original
// failure class, not just any failure. Passes repeat until a whole
// cycle makes no progress or maxRuns oracle executions are spent
// (0 means the default budget of 400).
//
// The reduction is fully deterministic: same spec + same oracle ⇒ same
// minimized spec.
func Shrink(spec *scenario.Spec, oracle string, maxRuns int) ShrinkResult {
	if maxRuns <= 0 {
		maxRuns = 400
	}
	res := ShrinkResult{Spec: spec.Clone()}
	fails := func(c *scenario.Spec) bool {
		if res.Runs >= maxRuns {
			return false
		}
		if c.Validate() != nil {
			return false
		}
		res.Runs++
		// A candidate whose reduction flips the failure to a different
		// oracle class is rejected like a passing one: the minimized
		// spec must reproduce the original failure, not just any.
		for _, f := range candidateFindings(c, oracle) {
			if f.Oracle == oracle {
				return true
			}
		}
		return false
	}
	res.Spec = reduce(res.Spec, fails)
	res.Findings = candidateFindings(res.Spec, oracle)
	return res
}

// candidateFindings evaluates one shrink candidate: the differential
// oracle re-runs its own comparison (one predicate call is one oracle
// execution against the budget, whatever it costs internally); every
// other class runs the spec once through the full oracle suite. A
// package variable so shrinker edge-case tests can substitute synthetic
// failure landscapes — oracle flips, budgets dying mid-pass — that the
// live protocol no longer produces.
var candidateFindings = func(c *scenario.Spec, oracle string) []Finding {
	if oracle == OracleDifferential {
		return CheckDifferential(c)
	}
	rep, err := scenario.Run(c, scenario.Options{})
	if err != nil {
		return []Finding{{Oracle: "run-error", Detail: err.Error()}}
	}
	return Check(c, rep)
}

// reduce is the oracle-agnostic greedy reduction loop: it applies every
// pass against an arbitrary failure predicate until a whole cycle makes
// no progress. Split from Shrink so the reducer machinery is testable
// with synthetic predicates that do not run the simulator.
func reduce(spec *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	passes := []func(*scenario.Spec, func(*scenario.Spec) bool) *scenario.Spec{
		shrinkFaults,
		shrinkNodes,
		shrinkSources,
		shrinkOperators,
		shrinkSimplify,
		shrinkScalars,
	}
	for {
		smaller := false
		for _, pass := range passes {
			if c := pass(spec, fails); c != nil {
				spec = c
				smaller = true
			}
		}
		if !smaller {
			break
		}
	}
	return spec
}

// shrinkFaults drops faults one at a time, last first (later faults are
// more often incidental to an earlier root cause).
func shrinkFaults(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	for i := len(cur.Faults) - 1; i >= 0; i-- {
		c := cur.Clone()
		c.Faults = append(c.Faults[:i], c.Faults[i+1:]...)
		if len(c.Faults) == 0 {
			c.Faults = nil
		}
		if fails(c) {
			cur, best = c, c
		}
	}
	return best
}

// shrinkNodes splices out one node at a time: consumers inherit the
// removed node's inputs, the client retargets to a surviving node, and
// faults addressing the node are dropped with it.
func shrinkNodes(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	for i := len(cur.Nodes) - 1; i >= 0; i-- {
		if len(cur.Nodes) == 1 {
			break
		}
		if c := spliceNode(cur, i); c != nil && fails(c) {
			cur, best = c, c
			// Indices shifted; restart the scan from the new tail.
			i = len(cur.Nodes)
		}
	}
	return best
}

// spliceNode removes node i from a copy of the spec, rewiring consumers
// and the client around it; nil when the node cannot be spliced (it is
// the client input and has no node-typed input to retarget to).
func spliceNode(s *scenario.Spec, i int) *scenario.Spec {
	c := s.Clone()
	dead := c.Nodes[i]
	if c.ClientInput() == dead.Name {
		retarget := ""
		for _, in := range dead.Inputs {
			for j := range c.Nodes {
				if j != i && c.Nodes[j].Name == in {
					retarget = in
				}
			}
		}
		if retarget == "" {
			return nil
		}
		c.Client.Input = retarget
	}
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
	for j := range c.Nodes {
		n := &c.Nodes[j]
		var inputs []string
		for _, in := range n.Inputs {
			if in != dead.Name {
				inputs = appendUnique(inputs, in)
				continue
			}
			for _, up := range dead.Inputs {
				inputs = appendUnique(inputs, up)
			}
		}
		n.Inputs = inputs
	}
	var faults []scenario.FaultSpec
	for _, f := range c.Faults {
		if f.Node == dead.Name || mentionsEndpoint(f, dead.Name) {
			continue
		}
		faults = append(faults, f)
	}
	c.Faults = faults
	return c
}

// shrinkSources drops whole source groups (keeping at least one), and
// with them every node input and fault that referenced the group.
func shrinkSources(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	for i := len(cur.Sources) - 1; i >= 0 && len(cur.Sources) > 1; i-- {
		c := cur.Clone()
		dead := c.Sources[i]
		c.Sources = append(c.Sources[:i], c.Sources[i+1:]...)
		ok := true
		for j := range c.Nodes {
			n := &c.Nodes[j]
			var inputs []string
			for _, in := range n.Inputs {
				if !refersToSource(&dead, in) {
					inputs = append(inputs, in)
				}
			}
			if len(inputs) == 0 {
				ok = false
				break
			}
			n.Inputs = inputs
		}
		if !ok {
			continue
		}
		var faults []scenario.FaultSpec
		for _, f := range c.Faults {
			if refersToSource(&dead, f.Source) || refersToSource(&dead, f.From) || refersToSource(&dead, f.To) {
				continue
			}
			faults = append(faults, f)
		}
		c.Faults = faults
		if fails(c) {
			cur, best = c, c
		}
	}
	return best
}

// shrinkOperators drops operators one at a time across all nodes.
func shrinkOperators(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	for ni := range cur.Nodes {
		for oi := len(cur.Nodes[ni].Operators) - 1; oi >= 0; oi-- {
			c := cur.Clone()
			ops := c.Nodes[ni].Operators
			ops = append(ops[:oi], ops[oi+1:]...)
			if len(ops) == 0 {
				ops = nil
			}
			c.Nodes[ni].Operators = ops
			if fails(c) {
				cur, best = c, c
			}
		}
	}
	return best
}

// shrinkSimplify zeroes optional shaping: workloads to constant,
// distributions to uniform, member counts to 1, policies and cascade to
// their defaults, and the consistency reference off when the oracle does
// not need it.
func shrinkSimplify(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	attempt := func(mutate func(*scenario.Spec) bool) {
		c := cur.Clone()
		if !mutate(c) {
			return
		}
		if fails(c) {
			cur, best = c, c
		}
	}
	for i := range cur.Sources {
		i := i
		attempt(func(c *scenario.Spec) bool {
			if c.Sources[i].Workload == (scenario.WorkloadSpec{}) {
				return false
			}
			c.Sources[i].Workload = scenario.WorkloadSpec{}
			return true
		})
		attempt(func(c *scenario.Spec) bool {
			if c.Sources[i].Distribution == "" && c.Sources[i].Skew == 0 {
				return false
			}
			c.Sources[i].Distribution, c.Sources[i].Skew = "", 0
			return true
		})
		attempt(func(c *scenario.Spec) bool {
			if c.Sources[i].Count <= 1 {
				return false
			}
			c.Sources[i].Count = 0
			return true
		})
	}
	for i := range cur.Nodes {
		i := i
		attempt(func(c *scenario.Spec) bool {
			n := &c.Nodes[i]
			if !n.Cascade && n.FailurePolicy == "" && n.Stabilization == "" {
				return false
			}
			n.Cascade, n.FailurePolicy, n.Stabilization = false, "", ""
			return true
		})
		attempt(func(c *scenario.Spec) bool {
			if c.Nodes[i].Replicas == nil {
				return false
			}
			c.Nodes[i].Replicas = nil
			return true
		})
	}
	return best
}

// shrinkScalars lowers rates, shortens durations and pulls fault times
// earlier, trying halves before milder reductions.
func shrinkScalars(s *scenario.Spec, fails func(*scenario.Spec) bool) *scenario.Spec {
	var best *scenario.Spec
	cur := s
	attempt := func(mutate func(*scenario.Spec) bool) {
		c := cur.Clone()
		if !mutate(c) {
			return
		}
		if fails(c) {
			cur, best = c, c
		}
	}
	for _, scale := range []float64{0.5, 0.75} {
		scale := scale
		attempt(func(c *scenario.Spec) bool {
			d := round1(c.DurationS * scale)
			if d < 10 || d == c.DurationS {
				return false
			}
			c.DurationS = d
			return true
		})
		for i := range cur.Sources {
			i := i
			attempt(func(c *scenario.Spec) bool {
				r := round1(c.Sources[i].Rate * scale)
				if r < 30 || r == c.Sources[i].Rate {
					return false
				}
				c.Sources[i].Rate = r
				if c.Sources[i].Workload.ToRate > 0 {
					c.Sources[i].Workload.ToRate = round1(c.Sources[i].Workload.ToRate * scale)
				}
				return true
			})
		}
		for i := range cur.Faults {
			i := i
			attempt(func(c *scenario.Spec) bool {
				at := round1(c.Faults[i].AtS * scale)
				if at < 2 || at == c.Faults[i].AtS {
					return false
				}
				c.Faults[i].AtS = at
				return true
			})
			attempt(func(c *scenario.Spec) bool {
				d := round1(c.Faults[i].DurationS * scale)
				if d < 0.5 || d == c.Faults[i].DurationS {
					return false
				}
				c.Faults[i].DurationS = d
				return true
			})
		}
	}
	return best
}

// mentionsEndpoint reports whether a fault's partition endpoints address
// the named node (whole group or any replica of it).
func mentionsEndpoint(f scenario.FaultSpec, node string) bool {
	match := func(ep string) bool {
		return ep == node || strings.HasPrefix(ep, node+"/")
	}
	return f.Kind == "partition" && (match(f.From) || match(f.To))
}

// refersToSource reports whether name addresses the group or one of its
// expanded members.
func refersToSource(ss *scenario.SourceSpec, name string) bool {
	if name == "" {
		return false
	}
	if name == ss.Name {
		return true
	}
	if ss.Count > 1 && strings.HasPrefix(name, ss.Name) {
		rest := name[len(ss.Name):]
		for _, r := range rest {
			if r < '0' || r > '9' {
				return false
			}
		}
		return rest != ""
	}
	return false
}

func appendUnique(list []string, v string) []string {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
