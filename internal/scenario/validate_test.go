package scenario

import (
	"strings"
	"testing"
)

// TestValidateErrors drives every error branch of Spec.Validate from a
// minimal valid spec plus one mutation per case. The fuzzer generator
// (internal/fuzz) treats Validate as the exact contract for "this spec
// compiles and runs", so every rejection — and only these rejections —
// must hold: a validated spec that panics at build time is a bug in this
// table as much as in the builder.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		// Top-level fields.
		{"missing name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"zero duration", func(s *Spec) { s.DurationS = 0 }, "duration_s"},
		{"negative duration", func(s *Spec) { s.DurationS = -3 }, "duration_s"},
		{"negative quick duration", func(s *Spec) { s.QuickDurationS = -1 }, "quick_duration_s"},
		{"negative availability slack", func(s *Spec) { s.AvailabilitySlackS = -1 }, "availability_slack_s"},
		{"no sources", func(s *Spec) { s.Sources = nil }, "no sources"},
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "no nodes"},

		// Defaults.
		{"defaults failure policy", func(s *Spec) { s.Defaults.FailurePolicy = "retry" }, "unknown policy"},
		{"defaults stabilization", func(s *Spec) { s.Defaults.Stabilization = "panic" }, "unknown policy"},
		{"defaults negative bucket", func(s *Spec) { s.Defaults.BucketMS = -1 }, "defaults.bucket_ms"},
		{"defaults sub-µs bucket", func(s *Spec) { s.Defaults.BucketMS = 0.0005 }, "defaults.bucket_ms"},
		{"defaults negative boundary", func(s *Spec) { s.Defaults.BoundaryMS = -1 }, "defaults.boundary_ms"},
		{"defaults negative tick", func(s *Spec) { s.Defaults.TickMS = -1 }, "defaults.tick_ms"},
		{"defaults negative stall timeout", func(s *Spec) { s.Defaults.StallTimeoutMS = -1 }, "defaults.stall_timeout_ms"},
		{"defaults negative keep-alive", func(s *Spec) { s.Defaults.KeepAliveMS = -1 }, "defaults.keep_alive_ms"},
		{"defaults negative ack interval", func(s *Spec) { s.Defaults.AckIntervalMS = -1 }, "defaults.ack_interval_ms"},
		{"defaults negative delay", func(s *Spec) { s.Defaults.DelayS = -2 }, "defaults.delay_s"},
		{"defaults negative capacity", func(s *Spec) { s.Defaults.Capacity = -1 }, "defaults.capacity"},
		{"defaults negative replicas", func(s *Spec) { s.Defaults.Replicas = -1 }, "defaults.replicas"},

		// Client.
		{"client negative bucket", func(s *Spec) { s.Client.BucketMS = -1 }, "client.bucket_ms"},
		{"client sub-µs delay", func(s *Spec) { s.Client.DelayMS = 0.0001 }, "client.delay_ms"},
		{"client negative tentative wait", func(s *Spec) { s.Client.TentativeWaitMS = -1 }, "client.tentative_wait_ms"},
		{"bad client input", func(s *Spec) { s.Client.Input = "ghost" }, "client input"},
		{"client input is a source", func(s *Spec) { s.Client.Input = "s" }, "client input"},

		// Sources.
		{"source missing name", func(s *Spec) { s.Sources[0].Name = "" }, "missing name"},
		{"duplicate source name", func(s *Spec) {
			s.Sources = append(s.Sources, SourceSpec{Name: "s", Rate: 1})
		}, "duplicate source name"},
		{"negative rate", func(s *Spec) { s.Sources[0].Rate = -5 }, "rate must be positive"},
		{"zero rate", func(s *Spec) { s.Sources[0].Rate = 0 }, "rate must be positive"},
		{"negative count", func(s *Spec) { s.Sources[0].Count = -2 }, "count must not be negative"},
		{"bad distribution", func(s *Spec) { s.Sources[0].Distribution = "pareto" }, "unknown distribution"},
		{"negative skew", func(s *Spec) { s.Sources[0].Skew = -0.5 }, "skew"},
		{"bad workload", func(s *Spec) { s.Sources[0].Workload.Kind = "sine" }, "unknown workload kind"},
		{"bursty negative factor", func(s *Spec) {
			s.Sources[0].Workload = WorkloadSpec{Kind: "bursty", Factor: -1}
		}, "bursty"},
		{"bursty duty out of range", func(s *Spec) {
			s.Sources[0].Workload = WorkloadSpec{Kind: "bursty", Duty: 1}
		}, "bursty"},
		{"bursty mean impossible", func(s *Spec) {
			s.Sources[0].Workload = WorkloadSpec{Kind: "bursty", Factor: 8, Duty: 0.25}
		}, "cannot preserve the mean"},
		{"ramp negative target", func(s *Spec) {
			s.Sources[0].Workload = WorkloadSpec{Kind: "ramp", ToRate: -10}
		}, "to_rate"},
		{"source negative boundary", func(s *Spec) { s.Sources[0].BoundaryMS = -1 }, "boundary_ms"},
		{"source negative log cap", func(s *Spec) { s.Sources[0].LogCap = -1 }, "log_cap"},
		{"expanded stream collision", func(s *Spec) {
			s.Sources[0].Count = 2 // expands to s1, s2
			s.Sources = append(s.Sources, SourceSpec{Name: "s1", Rate: 1})
			s.Nodes[0].Inputs = []string{"s"}
		}, "defined twice"},

		// Nodes.
		{"node missing name", func(s *Spec) { s.Nodes[0].Name = "" }, "missing name"},
		{"duplicate node", func(s *Spec) {
			s.Nodes = append(s.Nodes, NodeSpec{Name: "n1", Inputs: []string{"s"}})
		}, "duplicate node name"},
		{"node/source collision", func(s *Spec) { s.Nodes[0].Name = "s" }, "collides with a source"},
		{"node/member collision", func(s *Spec) {
			s.Sources[0].Count = 2
			s.Nodes[0].Name = "s2"
		}, "collides with a source"},
		{"no inputs", func(s *Spec) { s.Nodes[0].Inputs = nil }, "no inputs"},
		{"unknown input", func(s *Spec) { s.Nodes[0].Inputs = []string{"nope"} }, `unknown input "nope"`},
		{"replicas too low", func(s *Spec) { r := 0; s.Nodes[0].Replicas = &r }, "replicas must be in 1..26"},
		{"replicas too high", func(s *Spec) { r := 40; s.Nodes[0].Replicas = &r }, "replicas must be in 1..26"},
		{"negative delay", func(s *Spec) { d := -1.0; s.Nodes[0].DelayS = &d }, "delay_s"},
		{"negative capacity", func(s *Spec) { c := -1.0; s.Nodes[0].Capacity = &c }, "capacity"},
		{"bad failure policy", func(s *Spec) { s.Nodes[0].FailurePolicy = "retry" }, "unknown policy"},
		{"bad stabilization", func(s *Spec) { s.Nodes[0].Stabilization = "hope" }, "unknown policy"},
		{"bad buffer mode", func(s *Spec) { s.Nodes[0].BufferMode = "ring" }, "unknown buffer_mode"},
		{"negative buffer cap", func(s *Spec) { s.Nodes[0].BufferCap = -1 }, "buffer_cap"},
		{"node negative tentative wait", func(s *Spec) { s.Nodes[0].TentativeWaitMS = -1 }, "tentative_wait_ms"},

		// Operators.
		{"aggregate missing window", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "aggregate"}}
		}, "window_ms"},
		{"aggregate sub-µs window", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "aggregate", WindowMS: 0.0005}}
		}, "window_ms"},
		{"aggregate negative slide", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "aggregate", WindowMS: 100, SlideMS: -1}}
		}, "slide_ms"},
		{"aggregate bad fn", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "aggregate", WindowMS: 100, Fn: "median"}}
		}, "unknown fn"},
		{"join missing window", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join"}}
		}, "window_ms"},
		{"join negative left inputs", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 100, LeftInputs: -1}}
		}, "left_inputs"},
		{"join on a single input", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 100}}
		}, "operator 0: join needs at least 2 inputs"},
		{"join on a one-member group", func(s *Spec) {
			s.Sources[0].Count = 1
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 100}}
		}, "join needs at least 2 inputs"},
		{"join with every input on the left", func(s *Spec) {
			s.Sources[0].Count = 3
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "map"}, {Kind: "join", WindowMS: 100, LeftInputs: 3}}
		}, `node "n1" operator 1: left_inputs 3 leaves no right side among 3 inputs`},
		{"join negative left key", func(s *Spec) {
			s.Sources[0].Count = 2
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 100, LeftKey: -1}}
		}, "left_key and right_key must not be negative"},
		{"join negative right key", func(s *Spec) {
			s.Sources[0].Count = 2
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 100, RightKey: -2}}
		}, "left_key and right_key must not be negative"},
		{"filter negative field", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "filter", Field: -1}}
		}, `node "n1" operator 0: filter field must not be negative`},
		{"map negative field", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "filter"}, {Kind: "map", Field: -1, Scale: 3}}
		}, `node "n1" operator 1: map field must not be negative`},
		{"unknown operator", func(s *Spec) {
			s.Nodes[0].Operators = []OperatorSpec{{Kind: "sort"}}
		}, "unknown kind"},

		// Topology.
		{"cyclic dag", func(s *Spec) {
			s.Nodes = []NodeSpec{
				{Name: "n1", Inputs: []string{"s", "n3"}},
				{Name: "n2", Inputs: []string{"n1"}},
				{Name: "n3", Inputs: []string{"n2"}},
			}
		}, "cyclic topology"},
		{"self cycle", func(s *Spec) { s.Nodes[0].Inputs = []string{"s", "n1"} }, "cyclic topology"},

		// Faults.
		{"negative fault time", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: "n1", AtS: -1}}
		}, "negative time"},
		{"negative fault duration", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: "n1", AtS: 1, DurationS: -2}}
		}, "negative time"},
		{"crash unknown node", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: "ghost", AtS: 1}}
		}, `unknown node "ghost"`},
		{"restart unknown node", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "restart", Node: "ghost", AtS: 1}}
		}, `unknown node "ghost"`},
		{"crash replica range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: "n1", Replica: 9, AtS: 1}}
		}, "has no replica 9"},
		{"crash negative replica", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: "n1", Replica: -1, AtS: 1}}
		}, "has no replica -1"},
		{"flap needs period", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "flap", Node: "n1", AtS: 1}}
		}, "period_s"},
		{"disconnect unknown source", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "disconnect", Source: "ghost", AtS: 1, DurationS: 1}}
		}, `unknown source "ghost"`},
		{"disconnect needs duration", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "disconnect", Source: "s", AtS: 1}}
		}, "duration_s must be positive"},
		{"stall unknown source", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "stall_boundaries", Source: "ghost", AtS: 1, DurationS: 1}}
		}, `unknown source "ghost"`},
		{"stall needs duration", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "stall_boundaries", Source: "s", AtS: 1}}
		}, "duration_s must be positive"},
		{"partition unknown from", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", From: "ghost", To: "n1", AtS: 1, DurationS: 1}}
		}, `unknown endpoint "ghost"`},
		{"partition unknown to", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", From: "n1", To: "ghost", AtS: 1, DurationS: 1}}
		}, `unknown endpoint "ghost"`},
		{"partition replica range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", From: "n1/7", To: "s", AtS: 1, DurationS: 1}}
		}, `unknown endpoint "n1/7"`},
		{"partition bad replica syntax", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", From: "n1/x", To: "s", AtS: 1, DurationS: 1}}
		}, `unknown endpoint "n1/x"`},
		{"partition needs duration", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", From: "n1", To: "s", AtS: 1}}
		}, "duration_s must be positive"},
		{"unknown fault kind", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "meteor", AtS: 1}}
		}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimal()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %q", tc.wantErr, err)
			}
		})
	}
}

// TestValidateAcceptsEdgeValues pins deliberate acceptances next to the
// rejections above: zero means "use the default" for every optional
// duration, and boundary-legal values pass.
func TestValidateAcceptsEdgeValues(t *testing.T) {
	s := minimal()
	s.Defaults.BucketMS = 0.001 // exactly one microsecond
	s.Defaults.Replicas = 0     // default
	s.Client.DelayMS = 0        // default
	r := 26
	s.Nodes[0].Replicas = &r // top of the range
	d := 0.0
	s.Nodes[0].DelayS = &d // zero delay is legal (no suspension slack)
	s.Nodes[0].Operators = []OperatorSpec{{Kind: "aggregate", WindowMS: 0.001}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// A join over a source group: the group's members are the ports, and
	// left_inputs may leave a single one on the right.
	s.Sources[0].Count = 3
	s.Nodes[0].Operators = []OperatorSpec{{Kind: "join", WindowMS: 0.001, LeftInputs: 2}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
