// Package deploy assembles complete distributed DPC deployments on the
// simulated network: data sources, replicated processing-node graphs, and a
// DPC client proxy. BuildTopology (topology.go) handles arbitrary DAGs of
// replicated node groups; BuildChain and BuildSUnionTree are presets for
// the topologies of the paper's evaluation (Fig. 10's SUnion tree, Fig.
// 12's replicated single node with an SJoin, Fig. 14's replicated chain,
// and Fig. 22's overhead setup).
package deploy

import (
	"fmt"

	"borealis/internal/client"
	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/source"
)

// ChainSpec describes a replicated chain deployment.
type ChainSpec struct {
	// Depth is the number of processing-node levels (≥1); Replicas the
	// number of replicas per level (the paper uses 2).
	Depth, Replicas int
	// Sources is the number of input streams feeding level 1; Rate the
	// aggregate input rate in tuples/second.
	Sources int
	Rate    float64
	// Delay is D assigned to each level's SUnion; DelayOverride, when
	// non-nil, assigns per-level delays instead (Fig. 19's whole-delay
	// assignment gives every SUnion the total X).
	Delay         int64
	DelayOverride func(level int) int64
	// BucketSize, BoundaryInterval, TickInterval: serialization grain.
	BucketSize, BoundaryInterval, TickInterval int64
	// Capacity is each node's processing rate (tuples/second).
	Capacity float64
	// FailurePolicy / StabilizationPolicy select the §6 variant.
	FailurePolicy       operator.DelayPolicy
	StabilizationPolicy operator.DelayPolicy
	// TentativeWait overrides the SUnion tentative-bucket wait.
	TentativeWait int64
	// TentativeBoundaries enables the footnote-5 extension on every
	// SUnion: tentative flushes carry boundaries so downstream nodes
	// need not wait TentativeWait per tentative bucket.
	TentativeBoundaries bool
	// StallTimeout / KeepAlive tune detection (zero = defaults).
	StallTimeout, KeepAlive int64
	// WithJoin adds the Fig. 12 SJoin (≈100-tuple state) at level 1.
	WithJoin bool
	// JoinStateTuples sizes the join window (default 100).
	JoinStateTuples int
	// ClientDelay / ClientTentativeWait tune the client proxy's SUnion;
	// keep these small so measurements reflect the processing nodes.
	ClientDelay, ClientTentativeWait int64
	// AckInterval enables output-buffer truncation acks when positive.
	AckInterval int64
	// BufferMode / BufferCap bound node output buffers (§8.1).
	BufferMode node.BufferMode
	BufferCap  int
	// FineGrained enables the §8.2 per-stream refinement.
	FineGrained bool
	// RecordClient keeps the client's delivery trace.
	RecordClient bool
}

func (s *ChainSpec) normalize() error {
	if s.Depth < 1 {
		return fmt.Errorf("deploy: depth must be ≥ 1")
	}
	if s.Replicas < 1 {
		s.Replicas = 1
	}
	if s.Sources < 1 {
		s.Sources = 1
	}
	if s.Rate <= 0 {
		s.Rate = 500
	}
	if s.Delay <= 0 {
		s.Delay = 2 * runtime.Second
	}
	if s.BucketSize <= 0 {
		s.BucketSize = 100 * runtime.Millisecond
	}
	if s.BoundaryInterval <= 0 {
		s.BoundaryInterval = 100 * runtime.Millisecond
	}
	if s.TickInterval <= 0 {
		s.TickInterval = 10 * runtime.Millisecond
	}
	if s.FailurePolicy == operator.PolicyNone {
		s.FailurePolicy = operator.PolicyProcess
	}
	if s.StabilizationPolicy == operator.PolicyNone {
		s.StabilizationPolicy = operator.PolicyProcess
	}
	if s.JoinStateTuples <= 0 {
		s.JoinStateTuples = 100
	}
	if s.ClientDelay <= 0 {
		s.ClientDelay = 50 * runtime.Millisecond
	}
	if s.ClientTentativeWait <= 0 {
		s.ClientTentativeWait = 50 * runtime.Millisecond
	}
	return nil
}

// Deployment is a running system.
type Deployment struct {
	// RT is the runtime the deployment schedules and runs on: a
	// *runtime.VirtualClock for deterministic simulation, or a
	// *runtime.WallClock for paced real-time execution.
	RT runtime.Runtime
	// Fab is the message fabric every endpoint registered on: Net in a
	// single-process deployment, the TCP transport in a cluster partition.
	Fab fabric.Fabric
	// Sim is RT as the concrete simulator when the deployment runs on a
	// *runtime.VirtualClock (its Step/Processed drive surface is not part
	// of Runtime); nil on a wall clock.
	Sim     *runtime.VirtualClock
	Net     *netsim.Net
	Sources []*source.Source
	// Nodes[group][replica], groups in spec listing order (validated
	// loop-free, but not reordered); for chain deployments a group is a
	// level.
	Nodes  [][]*node.Node
	Client *client.Client
	// Spec is the chain preset spec, when built via BuildChain.
	Spec ChainSpec
	// Topology is the generalized spec every deployment compiles to.
	Topology *TopologySpec

	groupIndex  map[string]int
	sourceIndex map[string]int
}

// nodeID names replica r of level l: "n1a", "n1b", "n2a", ...
func nodeID(level, replica int) string {
	return GroupReplicaID(fmt.Sprintf("n%d", level), replica)
}

// levelStream names the output stream of level l.
func levelStream(level int) string { return fmt.Sprintf("t%d", level) }

// BuildChain assembles a chain deployment as a preset over BuildTopology.
// Call Start to begin.
func BuildChain(spec ChainSpec) (*Deployment, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	top := TopologySpec{
		BucketSize:       spec.BucketSize,
		BoundaryInterval: spec.BoundaryInterval,
		TickInterval:     spec.TickInterval,
		StallTimeout:     spec.StallTimeout,
		KeepAlive:        spec.KeepAlive,
		AckInterval:      spec.AckInterval,
		Client: TopologyClient{
			Stream:              levelStream(spec.Depth),
			BucketSize:          spec.BucketSize,
			Delay:               spec.ClientDelay,
			TentativeWait:       spec.ClientTentativeWait,
			TentativeBoundaries: spec.TentativeBoundaries,
			Record:              spec.RecordClient,
		},
	}
	perSource := spec.Rate / float64(spec.Sources)
	var level1Inputs []string
	for i := 0; i < spec.Sources; i++ {
		stream := fmt.Sprintf("s%d", i+1)
		level1Inputs = append(level1Inputs, stream)
		top.Sources = append(top.Sources, TopologySource{
			ID:     fmt.Sprintf("src%d", i+1),
			Stream: stream,
			Rate:   perSource,
		})
	}
	delayAt := func(level int) int64 {
		if spec.DelayOverride != nil {
			return spec.DelayOverride(level)
		}
		return spec.Delay
	}
	for level := 1; level <= spec.Depth; level++ {
		g := NodeGroup{
			Name:                fmt.Sprintf("n%d", level),
			Output:              levelStream(level),
			Inputs:              []string{levelStream(level - 1)},
			Replicas:            spec.Replicas,
			Delay:               delayAt(level),
			Capacity:            spec.Capacity,
			FailurePolicy:       spec.FailurePolicy,
			StabilizationPolicy: spec.StabilizationPolicy,
			TentativeWait:       spec.TentativeWait,
			TentativeBoundaries: spec.TentativeBoundaries,
			BufferMode:          spec.BufferMode,
			BufferCap:           spec.BufferCap,
			FineGrained:         spec.FineGrained,
		}
		if level == 1 {
			g.Inputs = level1Inputs
			if spec.WithJoin {
				// Fig. 12: SJoin sized to hold ≈ JoinStateTuples. The
				// window (in stime units) that keeps that many tuples
				// buffered at the aggregate input rate:
				win := int64(float64(spec.JoinStateTuples) / spec.Rate * float64(runtime.Second))
				if win < 1 {
					win = 1
				}
				left := int32(spec.Sources) / 2
				g.Operators = func() []operator.Operator {
					return []operator.Operator{operator.NewSJoin("join", operator.JoinConfig{
						Window:   win,
						LeftKey:  0,
						RightKey: 0,
						IsLeft:   func(src int32) bool { return src < left },
					})}
				}
			}
		}
		top.Groups = append(top.Groups, g)
	}
	dep, err := BuildTopology(top)
	if err != nil {
		return nil, err
	}
	dep.Spec = spec
	return dep, nil
}

// Start launches sources, nodes and the client. On a cluster partition the
// non-owned slots are nil and skipped; each worker starts only what it
// hosts.
func (d *Deployment) Start() {
	for _, row := range d.Nodes {
		for _, n := range row {
			if n != nil {
				n.Start()
			}
		}
	}
	if d.Client != nil {
		d.Client.Start()
	}
	for _, s := range d.Sources {
		s.Start()
	}
}

// UseReferencePlane moves every built replica and the client proxy onto
// the per-tuple reference data plane (engine.UseReferencePlane) — the
// differential oracle's switch, thrown after build and before Start. A
// crash-restart keeps its engine, so the switch survives it.
func (d *Deployment) UseReferencePlane() {
	for _, row := range d.Nodes {
		for _, n := range row {
			if n != nil {
				n.Engine().UseReferencePlane()
			}
		}
	}
	if d.Client != nil {
		d.Client.Proxy().Engine().UseReferencePlane()
	}
}

// RunFor drives the deployment's runtime for dur microseconds: virtual
// time on a simulator, scaled wall time on a wall clock.
func (d *Deployment) RunFor(dur int64) { d.RT.RunFor(dur) }

// DisconnectSource injects the Table III failure at virtual-time offsets:
// source i disconnects at `at` and reconnects (with full replay) at
// `at+duration`.
func (d *Deployment) DisconnectSource(i int, at, duration int64) {
	s := d.Sources[i]
	d.RT.At(at, s.Disconnect)
	d.RT.At(at+duration, s.Reconnect)
}

// StallSourceBoundaries injects the Fig. 15/16 failure: source i keeps
// sending data but stops producing boundary tuples for the window.
func (d *Deployment) StallSourceBoundaries(i int, at, duration int64) {
	s := d.Sources[i]
	d.RT.At(at, s.StallBoundaries)
	d.RT.At(at+duration, s.ResumeBoundaries)
}

// CrashNode fail-stops replica r of a level at the given time.
func (d *Deployment) CrashNode(level, replica int, at int64) {
	n := d.Nodes[level-1][replica]
	d.RT.At(at, n.Crash)
}

// RestartNode recovers a crashed replica at the given time (§4.5).
func (d *Deployment) RestartNode(level, replica int, at int64) {
	n := d.Nodes[level-1][replica]
	d.RT.At(at, n.Restart)
}

// Partition severs the network between two endpoints for a window.
func (d *Deployment) Partition(a, b string, at, duration int64) {
	d.RT.At(at, func() { d.Net.Partition(a, b) })
	d.RT.At(at+duration, func() { d.Net.Heal(a, b) })
}

// SUnionTreeSpec describes the Fig. 10 diagram: four input streams merged
// by a chain of three SUnions on a single unreplicated node, used by the
// Fig. 11 eventual-consistency experiments.
type SUnionTreeSpec struct {
	Rate                                       float64
	Delay                                      int64
	BucketSize, BoundaryInterval, TickInterval int64
	Capacity                                   float64
	FailurePolicy, StabilizationPolicy         operator.DelayPolicy
	StallTimeout                               int64
	RecordClient                               bool
}

// BuildSUnionTree assembles the Fig. 10/11 deployment as a preset over
// BuildTopology: one unreplicated node whose diagram is the left-deep
// SUnion cascade (Cascade mode) over four source streams.
func BuildSUnionTree(spec SUnionTreeSpec) (*Deployment, error) {
	if spec.Rate <= 0 {
		spec.Rate = 400
	}
	if spec.Delay <= 0 {
		spec.Delay = 2 * runtime.Second
	}
	if spec.FailurePolicy == operator.PolicyNone {
		spec.FailurePolicy = operator.PolicyProcess
	}
	if spec.StabilizationPolicy == operator.PolicyNone {
		spec.StabilizationPolicy = operator.PolicySuspend
	}
	top := TopologySpec{
		BucketSize:       spec.BucketSize,
		BoundaryInterval: spec.BoundaryInterval,
		TickInterval:     spec.TickInterval,
		StallTimeout:     spec.StallTimeout,
		Client: TopologyClient{
			Stream: "t1",
			Delay:  50 * runtime.Millisecond,
			Record: spec.RecordClient,
		},
	}
	var inputs []string
	for i := 0; i < 4; i++ {
		stream := fmt.Sprintf("s%d", i+1)
		inputs = append(inputs, stream)
		top.Sources = append(top.Sources, TopologySource{
			ID:     fmt.Sprintf("src%d", i+1),
			Stream: stream,
			Rate:   spec.Rate / 4,
		})
	}
	top.Groups = []NodeGroup{{
		Name:                "n1",
		Output:              "t1",
		Inputs:              inputs,
		Cascade:             true,
		Delay:               spec.Delay,
		Capacity:            spec.Capacity,
		FailurePolicy:       spec.FailurePolicy,
		StabilizationPolicy: spec.StabilizationPolicy,
	}}
	return BuildTopology(top)
}
