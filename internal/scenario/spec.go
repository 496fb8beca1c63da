// Package scenario is a declarative front end over the deployment layer:
// it loads a JSON Scenario spec describing an arbitrary DAG topology, a
// workload shape per source, and a timed fault schedule; compiles it into
// a deploy.TopologySpec; runs it on the virtual-time simulator; and emits
// a structured metrics report (availability violations against the bound
// D, tentative/corrected tuple counts, stabilization latency, throughput).
//
// The file format is documented in docs/SCENARIOS.md; curated specs live
// in the repository's scenarios/ directory.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"borealis/internal/operator"
	rtpkg "borealis/internal/runtime"
)

// Spec is a complete scenario description. All durations are in seconds of
// virtual time; all rates in tuples per second.
type Spec struct {
	// Name identifies the scenario in reports and golden files.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every pseudo-random choice (workload phase jitter).
	// Same spec + same seed ⇒ bit-identical report.
	Seed int64 `json:"seed"`
	// DurationS is the simulated run length; QuickDurationS, when set,
	// replaces it under -quick (smoke tests, CI).
	DurationS      float64 `json:"duration_s"`
	QuickDurationS float64 `json:"quick_duration_s,omitempty"`
	// AvailabilitySlackS is added to the topology's worst-path delay sum
	// when deriving the availability bound (default 1s of processing and
	// transmission slack).
	AvailabilitySlackS float64 `json:"availability_slack_s,omitempty"`
	// VerifyConsistency re-runs the scenario without faults and audits
	// Definition 1 (eventual consistency) against it.
	VerifyConsistency bool `json:"verify_consistency,omitempty"`

	Defaults Defaults     `json:"defaults"`
	Sources  []SourceSpec `json:"sources"`
	Nodes    []NodeSpec   `json:"nodes"`
	Client   ClientSpec   `json:"client"`
	Faults   []FaultSpec  `json:"faults,omitempty"`
}

// Defaults hold per-scenario defaults applied to every node and source.
type Defaults struct {
	BucketMS       float64 `json:"bucket_ms,omitempty"`        // default 100
	BoundaryMS     float64 `json:"boundary_ms,omitempty"`      // default 100
	TickMS         float64 `json:"tick_ms,omitempty"`          // default 10
	DelayS         float64 `json:"delay_s,omitempty"`          // default 2
	Replicas       int     `json:"replicas,omitempty"`         // default 2
	Capacity       float64 `json:"capacity,omitempty"`         // default ∞
	FailurePolicy  string  `json:"failure_policy,omitempty"`   // default "process"
	Stabilization  string  `json:"stabilization,omitempty"`    // default "process"
	StallTimeoutMS float64 `json:"stall_timeout_ms,omitempty"` // default engine
	KeepAliveMS    float64 `json:"keep_alive_ms,omitempty"`    // default engine
	AckIntervalMS  float64 `json:"ack_interval_ms,omitempty"`  // default off
}

// WorkloadSpec shapes a source's rate over time.
type WorkloadSpec struct {
	// Kind: "constant" (default), "bursty", or "ramp".
	Kind string `json:"kind,omitempty"`
	// Bursty: every PeriodS seconds the rate jumps to Factor×rate for
	// Duty×PeriodS seconds, then drops so the mean stays at rate.
	PeriodS float64 `json:"period_s,omitempty"` // default 5
	Factor  float64 `json:"factor,omitempty"`   // default 4
	Duty    float64 `json:"duty,omitempty"`     // default 0.25
	// JitterPhase offsets each source's burst phase by a seed-derived
	// fraction of the period, de-synchronizing bursts across sources.
	JitterPhase bool `json:"jitter_phase,omitempty"`
	// Ramp: the rate moves linearly from rate to ToRate over OverS
	// seconds (default: the whole run), stepping every StepMS.
	ToRate float64 `json:"to_rate,omitempty"`
	OverS  float64 `json:"over_s,omitempty"`
	StepMS float64 `json:"step_ms,omitempty"` // default 250
}

// SourceSpec describes one source, or — with Count > 1 — a group of
// sources named name1..nameN sharing an aggregate rate.
type SourceSpec struct {
	Name string `json:"name"`
	// Count expands the entry into that many sources (default 1).
	Count int `json:"count,omitempty"`
	// Rate is the aggregate rate of the (expanded) group.
	Rate float64 `json:"rate"`
	// Distribution splits Rate across the group: "uniform" (default) or
	// "zipf" with exponent Skew (default 1.0) — the skewed-rate shape.
	Distribution string  `json:"distribution,omitempty"`
	Skew         float64 `json:"skew,omitempty"`
	// Workload shapes each member's rate over time.
	Workload WorkloadSpec `json:"workload"`
	// BoundaryMS overrides the boundary interval for this group.
	BoundaryMS float64 `json:"boundary_ms,omitempty"`
	// LogCap bounds the persistent log (0 = unbounded).
	LogCap int `json:"log_cap,omitempty"`
}

// OperatorSpec is one mid-chain operator in a node's diagram, applied
// after the serializing SUnion in list order.
type OperatorSpec struct {
	// Kind: "filter", "map", "aggregate" or "join".
	Kind string `json:"kind"`
	// Field indexes the payload attribute the operator reads (filter,
	// map, aggregate value field); ≥ 0 for filter and map, and a payload
	// too short to hold it reads 0 (the map leaves it unchanged).
	Field int `json:"field,omitempty"`
	// Filter keeps tuples whose Field is divisible by Modulo (default 2).
	Modulo int64 `json:"modulo,omitempty"`
	// Map multiplies Field by Scale (default 2).
	Scale int64 `json:"scale,omitempty"`
	// Aggregate: Fn is count|sum|avg|min|max; WindowMS / SlideMS set the
	// stime window (slide defaults to window → tumbling); GroupField
	// groups by a payload attribute (default: no grouping).
	Fn         string  `json:"fn,omitempty"`
	WindowMS   float64 `json:"window_ms,omitempty"`
	SlideMS    float64 `json:"slide_ms,omitempty"`
	GroupField *int    `json:"group_field,omitempty"`
	// Join: tuples match when LeftKey/RightKey fields are equal within
	// WindowMS; SUnion input ports < LeftInputs are the left side
	// (default: half the node's inputs).
	LeftKey    int `json:"left_key,omitempty"`
	RightKey   int `json:"right_key,omitempty"`
	LeftInputs int `json:"left_inputs,omitempty"`
}

// NodeSpec describes one logical processing node (a replica set).
type NodeSpec struct {
	Name string `json:"name"`
	// Inputs name sources (group names expand to every member) or other
	// nodes, in SUnion port order. The DAG they induce may be any
	// loop-free shape: chain, tree, diamond, fan-in, fan-out.
	Inputs []string `json:"inputs"`
	// Replicas overrides Defaults.Replicas when non-nil.
	Replicas *int `json:"replicas,omitempty"`
	// DelayS overrides Defaults.DelayS (the SUnion bound D) when non-nil.
	DelayS *float64 `json:"delay_s,omitempty"`
	// Cascade uses the Fig. 10 left-deep chain of two-port SUnions
	// instead of one wide SUnion (needs ≥ 2 inputs).
	Cascade   bool           `json:"cascade,omitempty"`
	Operators []OperatorSpec `json:"operators,omitempty"`
	// Capacity overrides Defaults.Capacity when non-nil (0 = infinite).
	Capacity *float64 `json:"capacity,omitempty"`
	// FailurePolicy / Stabilization override the scenario defaults:
	// "process", "delay" or "suspend".
	FailurePolicy string `json:"failure_policy,omitempty"`
	Stabilization string `json:"stabilization,omitempty"`
	// TentativeWaitMS / TentativeBoundaries tune tentative flushing.
	TentativeWaitMS     float64 `json:"tentative_wait_ms,omitempty"`
	TentativeBoundaries bool    `json:"tentative_boundaries,omitempty"`
	// FineGrained enables the §8.2 per-stream refinement.
	FineGrained bool `json:"fine_grained,omitempty"`
	// BufferMode ("unbounded", "block", "slide") and BufferCap bound the
	// output buffers (§8.1).
	BufferMode string `json:"buffer_mode,omitempty"`
	BufferCap  int    `json:"buffer_cap,omitempty"`
}

// ClientSpec configures the client proxy.
type ClientSpec struct {
	// Input names the node whose output the client consumes (default:
	// the last node listed).
	Input string `json:"input,omitempty"`
	// BucketMS overrides the proxy SUnion's bucket size (default:
	// defaults.bucket_ms, keeping proxy buckets aligned with the nodes).
	BucketMS float64 `json:"bucket_ms,omitempty"`
	// DelayMS is the proxy SUnion's own slack (default 50).
	DelayMS             float64 `json:"delay_ms,omitempty"`
	TentativeWaitMS     float64 `json:"tentative_wait_ms,omitempty"`
	TentativeBoundaries bool    `json:"tentative_boundaries,omitempty"`
}

// FaultSpec is one entry of the timed fault schedule.
type FaultSpec struct {
	// Kind: "crash", "restart", "flap" (Node+Replica); "disconnect",
	// "stall_boundaries" (Source); "partition" (From/To endpoints).
	Kind string `json:"kind"`
	// Node / Replica target a replica of a logical node.
	Node    string `json:"node,omitempty"`
	Replica int    `json:"replica,omitempty"`
	// Source targets a source by expanded name ("sens3") or group name
	// ("sens", hitting every member).
	Source string `json:"source,omitempty"`
	// From / To are partition endpoints: a node name (all replicas), a
	// "node/replica" pair, a source, or "client".
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// AtS schedules the fault; DurationS bounds it (partition heal,
	// source reconnect, flap down-time per cycle). A crash without
	// DurationS is permanent unless a later restart names the replica;
	// a crash with DurationS restarts the replica when it elapses.
	AtS       float64 `json:"at_s"`
	DurationS float64 `json:"duration_s,omitempty"`
	// Flap: Count down/up cycles (default 3) spaced PeriodS apart, each
	// down for DurationS (default half the period).
	PeriodS float64 `json:"period_s,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// Load reads and validates a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes and validates a scenario spec. Unknown fields and
// trailing content are rejected — a corrupted file fails loudly.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, errf("trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}

// validMS accepts zero (use the default) and values of at least one
// microsecond; negatives and positive sub-microsecond values are
// rejected (the latter truncate to zero when converted to engine µs).
func validMS(v float64, what string) error {
	if v < 0 {
		return errf("%s must not be negative", what)
	}
	if v > 0 && v < 0.001 {
		return errf("%s must be at least 0.001 (one microsecond)", what)
	}
	return nil
}

func parsePolicy(s, what string) (operator.DelayPolicy, error) {
	switch s {
	case "":
		return operator.PolicyNone, nil
	case "process":
		return operator.PolicyProcess, nil
	case "delay":
		return operator.PolicyDelay, nil
	case "suspend":
		return operator.PolicySuspend, nil
	}
	return operator.PolicyNone, errf("%s: unknown policy %q (want process|delay|suspend)", what, s)
}

func parseAggFn(s string) (operator.AggFunc, error) {
	switch s {
	case "count":
		return operator.AggCount, nil
	case "sum":
		return operator.AggSum, nil
	case "avg":
		return operator.AggAvg, nil
	case "min":
		return operator.AggMin, nil
	case "max":
		return operator.AggMax, nil
	}
	return operator.AggCount, errf("aggregate: unknown fn %q (want count|sum|avg|min|max)", s)
}

// sourceMembers returns the expanded source names of one SourceSpec.
func (ss *SourceSpec) members() []string {
	n := ss.Count
	if n <= 1 {
		return []string{ss.Name}
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf("%s%d", ss.Name, i+1)
	}
	return out
}

// ReplicasOf resolves a node's replica count against the defaults.
func (s *Spec) ReplicasOf(n *NodeSpec) int {
	if n.Replicas != nil {
		return *n.Replicas
	}
	if s.Defaults.Replicas > 0 {
		return s.Defaults.Replicas
	}
	return 2
}

// DelayOf resolves a node's availability bound D, in seconds.
func (s *Spec) DelayOf(n *NodeSpec) float64 {
	if n.DelayS != nil {
		return *n.DelayS
	}
	if s.Defaults.DelayS > 0 {
		return s.Defaults.DelayS
	}
	return 2
}

// ClientInput resolves the node the client consumes.
func (s *Spec) ClientInput() string {
	if s.Client.Input != "" {
		return s.Client.Input
	}
	if len(s.Nodes) > 0 {
		return s.Nodes[len(s.Nodes)-1].Name
	}
	return ""
}

// Validate checks the spec without building anything: names resolve, the
// node graph is a DAG, rates and durations are sane, and every fault
// targets something that exists.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errf("missing name")
	}
	if s.DurationS <= 0 {
		return errf("duration_s must be positive")
	}
	if s.QuickDurationS < 0 {
		return errf("quick_duration_s must not be negative")
	}
	if len(s.Sources) == 0 {
		return errf("no sources")
	}
	if len(s.Nodes) == 0 {
		return errf("no nodes")
	}
	if _, err := parsePolicy(s.Defaults.FailurePolicy, "defaults.failure_policy"); err != nil {
		return err
	}
	if _, err := parsePolicy(s.Defaults.Stabilization, "defaults.stabilization"); err != nil {
		return err
	}
	// Millisecond fields compile into microsecond engine parameters: a
	// negative value would silently fall back to a default downstream,
	// and a positive sub-microsecond one would truncate to zero and
	// panic at build time (SUnion bucket sizes must be positive). Reject
	// both here — the fuzzer generator and every other caller rely on
	// Validate being the exact contract for "this spec compiles and
	// runs".
	msFields := []struct {
		v    float64
		what string
	}{
		{s.Defaults.BucketMS, "defaults.bucket_ms"},
		{s.Defaults.BoundaryMS, "defaults.boundary_ms"},
		{s.Defaults.TickMS, "defaults.tick_ms"},
		{s.Defaults.StallTimeoutMS, "defaults.stall_timeout_ms"},
		{s.Defaults.KeepAliveMS, "defaults.keep_alive_ms"},
		{s.Defaults.AckIntervalMS, "defaults.ack_interval_ms"},
		{s.Client.BucketMS, "client.bucket_ms"},
		{s.Client.DelayMS, "client.delay_ms"},
		{s.Client.TentativeWaitMS, "client.tentative_wait_ms"},
	}
	for _, f := range msFields {
		if err := validMS(f.v, f.what); err != nil {
			return err
		}
	}
	if s.Defaults.DelayS < 0 {
		return errf("defaults.delay_s must not be negative")
	}
	if s.Defaults.Capacity < 0 {
		return errf("defaults.capacity must not be negative")
	}
	if s.Defaults.Replicas < 0 {
		return errf("defaults.replicas must not be negative")
	}
	if s.AvailabilitySlackS < 0 {
		return errf("availability_slack_s must not be negative")
	}

	// Source names and expanded member streams.
	sourceGroups := map[string]*SourceSpec{}
	streams := map[string]bool{}
	for i := range s.Sources {
		ss := &s.Sources[i]
		if ss.Name == "" {
			return errf("source %d: missing name", i)
		}
		if sourceGroups[ss.Name] != nil {
			return errf("duplicate source name %q", ss.Name)
		}
		if ss.Rate <= 0 {
			return errf("source %q: rate must be positive, got %v", ss.Name, ss.Rate)
		}
		if ss.Count < 0 {
			return errf("source %q: count must not be negative", ss.Name)
		}
		switch ss.Distribution {
		case "", "uniform", "zipf":
		default:
			return errf("source %q: unknown distribution %q (want uniform|zipf)", ss.Name, ss.Distribution)
		}
		if ss.Skew < 0 {
			return errf("source %q: skew must not be negative", ss.Name)
		}
		switch ss.Workload.Kind {
		case "", "constant":
		case "bursty":
			if ss.Workload.Factor < 0 || ss.Workload.Duty < 0 || ss.Workload.Duty >= 1 {
				return errf("source %q: bursty needs factor ≥ 0 and 0 ≤ duty < 1", ss.Name)
			}
			// The off-phase floor rate is base·(1−duty·factor)/(1−duty);
			// duty·factor > 1 would need a negative floor to preserve the
			// mean, which is impossible — reject instead of silently
			// running at a higher mean rate.
			factor, duty := ss.Workload.Factor, ss.Workload.Duty
			if factor == 0 {
				factor = 4
			}
			if duty == 0 {
				duty = 0.25
			}
			if duty*factor > 1 {
				return errf("source %q: bursty duty·factor = %.2f > 1 cannot preserve the mean rate", ss.Name, duty*factor)
			}
		case "ramp":
			if ss.Workload.ToRate < 0 {
				return errf("source %q: ramp to_rate must not be negative", ss.Name)
			}
		default:
			return errf("source %q: unknown workload kind %q (want constant|bursty|ramp)", ss.Name, ss.Workload.Kind)
		}
		if err := validMS(ss.BoundaryMS, fmt.Sprintf("source %q: boundary_ms", ss.Name)); err != nil {
			return err
		}
		if ss.LogCap < 0 {
			return errf("source %q: log_cap must not be negative", ss.Name)
		}
		sourceGroups[ss.Name] = ss
		for _, m := range ss.members() {
			if streams[m] {
				return errf("source stream %q defined twice", m)
			}
			streams[m] = true
		}
	}

	// Node names, inputs, operators; cycle detection over node edges.
	nodes := map[string]*NodeSpec{}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name == "" {
			return errf("node %d: missing name", i)
		}
		if nodes[n.Name] != nil {
			return errf("duplicate node name %q", n.Name)
		}
		if sourceGroups[n.Name] != nil || streams[n.Name] {
			return errf("node %q collides with a source name", n.Name)
		}
		nodes[n.Name] = n
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if len(n.Inputs) == 0 {
			return errf("node %q: no inputs", n.Name)
		}
		for _, in := range n.Inputs {
			if nodes[in] == nil && sourceGroups[in] == nil && !streams[in] {
				return errf("node %q: unknown input %q", n.Name, in)
			}
		}
		if s.ReplicasOf(n) < 1 || s.ReplicasOf(n) > 26 {
			return errf("node %q: replicas must be in 1..26", n.Name)
		}
		if s.DelayOf(n) < 0 {
			return errf("node %q: delay_s must not be negative", n.Name)
		}
		if n.Capacity != nil && *n.Capacity < 0 {
			return errf("node %q: capacity must not be negative", n.Name)
		}
		if _, err := parsePolicy(n.FailurePolicy, "node "+n.Name); err != nil {
			return err
		}
		if _, err := parsePolicy(n.Stabilization, "node "+n.Name); err != nil {
			return err
		}
		switch n.BufferMode {
		case "", "unbounded", "block", "slide":
		default:
			return errf("node %q: unknown buffer_mode %q", n.Name, n.BufferMode)
		}
		if n.BufferCap < 0 {
			return errf("node %q: buffer_cap must not be negative", n.Name)
		}
		if err := validMS(n.TentativeWaitMS, fmt.Sprintf("node %q: tentative_wait_ms", n.Name)); err != nil {
			return err
		}
		for oi, op := range n.Operators {
			switch op.Kind {
			case "filter", "map":
				if op.Field < 0 {
					return errf("node %q operator %d: %s field must not be negative", n.Name, oi, op.Kind)
				}
			case "aggregate":
				if op.WindowMS < 0.001 {
					return errf("node %q operator %d: aggregate needs window_ms ≥ 0.001", n.Name, oi)
				}
				if op.SlideMS < 0 {
					return errf("node %q operator %d: slide_ms must not be negative", n.Name, oi)
				}
				if op.Fn != "" {
					if _, err := parseAggFn(op.Fn); err != nil {
						return err
					}
				}
			case "join":
				if op.WindowMS < 0.001 {
					return errf("node %q operator %d: join needs window_ms ≥ 0.001", n.Name, oi)
				}
				if op.LeftInputs < 0 {
					return errf("node %q operator %d: left_inputs must not be negative", n.Name, oi)
				}
				// A join emits only when both sides receive tuples: sides
				// are SUnion input ports, split at left_inputs.
				ports := len(s.ExpandInputs(n))
				if ports < 2 {
					return errf("node %q operator %d: join needs at least 2 inputs (one per side), node has %d", n.Name, oi, ports)
				}
				if op.LeftInputs >= ports {
					return errf("node %q operator %d: left_inputs %d leaves no right side among %d inputs", n.Name, oi, op.LeftInputs, ports)
				}
				if op.LeftKey < 0 || op.RightKey < 0 {
					return errf("node %q operator %d: left_key and right_key must not be negative", n.Name, oi)
				}
			default:
				return errf("node %q operator %d: unknown kind %q (want filter|map|aggregate|join)", n.Name, oi, op.Kind)
			}
		}
	}
	// DFS cycle check over node→node edges.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		color[name] = grey
		for _, in := range nodes[name].Inputs {
			if nodes[in] == nil {
				continue
			}
			switch color[in] {
			case grey:
				return errf("cyclic topology: node %q reaches itself through %q", in, name)
			case white:
				if err := visit(in); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for i := range s.Nodes {
		if color[s.Nodes[i].Name] == white {
			if err := visit(s.Nodes[i].Name); err != nil {
				return err
			}
		}
	}

	ci := s.ClientInput()
	if nodes[ci] == nil {
		return errf("client input %q is not a node", ci)
	}

	// Fault targets.
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.AtS < 0 || f.DurationS < 0 {
			return errf("fault %d: negative time", i)
		}
		switch f.Kind {
		case "crash", "restart", "flap":
			n := nodes[f.Node]
			if n == nil {
				return errf("fault %d (%s): unknown node %q", i, f.Kind, f.Node)
			}
			if f.Replica < 0 || f.Replica >= s.ReplicasOf(n) {
				return errf("fault %d (%s): node %q has no replica %d", i, f.Kind, f.Node, f.Replica)
			}
			if f.Kind == "flap" && f.PeriodS <= 0 {
				return errf("fault %d (flap): period_s must be positive", i)
			}
		case "disconnect", "stall_boundaries":
			if sourceGroups[f.Source] == nil && !streams[f.Source] {
				return errf("fault %d (%s): unknown source %q", i, f.Kind, f.Source)
			}
			if f.DurationS <= 0 {
				return errf("fault %d (%s): duration_s must be positive", i, f.Kind)
			}
		case "partition":
			if s.endpointIDs(f.From) == nil {
				return errf("fault %d (partition): unknown endpoint %q", i, f.From)
			}
			if s.endpointIDs(f.To) == nil {
				return errf("fault %d (partition): unknown endpoint %q", i, f.To)
			}
			if f.DurationS <= 0 {
				return errf("fault %d (partition): duration_s must be positive", i)
			}
		default:
			return errf("fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// seconds converts spec seconds to virtual-time µs.
func seconds(s float64) int64 { return int64(s * float64(rtpkg.Second)) }

// millis converts spec milliseconds to virtual-time µs.
func millis(ms float64) int64 { return int64(ms * float64(rtpkg.Millisecond)) }
