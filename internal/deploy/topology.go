// Topology builder: assembles deployments over arbitrary loop-free graphs
// of replicated node groups. The scenario engine (internal/scenario)
// compiles declarative specs — the paper's evaluation topologies among
// them — into TopologySpec values and drives the result on the simulator.
package deploy

import (
	"fmt"

	"borealis/internal/client"
	"borealis/internal/diagram"
	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/source"
)

// TopologySource describes one data source endpoint.
type TopologySource struct {
	// ID is the network endpoint; Stream names the produced stream
	// (defaults to ID).
	ID, Stream string
	// Rate is the production rate in tuples/second.
	Rate float64
	// BoundaryInterval overrides the topology default; sources tick at
	// the topology's TickInterval.
	BoundaryInterval int64
	// Payload builds tuple payloads (nil = [seq, i+1] for the i-th source); see
	// source.Config.Payload.
	Payload func(seq uint64) []int64
	// LogCap bounds the source's persistent log (0 = unbounded).
	LogCap int
}

// NodeGroup describes one logical processing node, deployed as Replicas
// identical replica endpoints named Name+"a", Name+"b", ...
type NodeGroup struct {
	// Name is the logical node name; replica endpoints derive from it.
	Name string
	// Output names the group's output stream (default Name+".out").
	Output string
	// Inputs lists the streams the group consumes — source streams or
	// other groups' Output streams, in SUnion port order.
	Inputs []string
	// Replicas is the replication factor (default 1, max 26).
	Replicas int
	// Delay is the SUnion availability bound D assigned to this group.
	Delay int64
	// Cascade replaces the single len(Inputs)-port SUnion with the
	// Fig. 10 left-deep chain of two-port SUnions (su1, su2, ...): su1
	// merges Inputs[0] and Inputs[1], each later SUnion merges the
	// previous one's output with the next input stream.
	Cascade bool
	// Operators returns fresh mid-chain operators for one replica,
	// connected linearly (port 0) between the serializing SUnion(s) and
	// the SOutput. Called once per replica: operators hold state and
	// must never be shared between replicas.
	Operators func() []operator.Operator
	// Capacity is the replica processing rate in tuples/second (0 = ∞).
	Capacity float64
	// FailurePolicy / StabilizationPolicy select the §6 variant
	// (defaults: Process & Process).
	FailurePolicy, StabilizationPolicy operator.DelayPolicy
	// TentativeWait / TentativeBoundaries tune SUnion tentative flushing.
	TentativeWait       int64
	TentativeBoundaries bool
	// BufferMode / BufferCap / FineGrained: §8 extensions.
	BufferMode  node.BufferMode
	BufferCap   int
	FineGrained bool
}

// TopologyClient describes the client proxy terminating the deployment.
type TopologyClient struct {
	// Stream is the output stream to consume (default: the Output of
	// the last group listed).
	Stream string
	// BucketSize / Delay / TentativeWait parameterize the proxy SUnion.
	BucketSize, Delay, TentativeWait int64
	// TentativeBoundaries enables the footnote-5 extension at the proxy.
	TentativeBoundaries bool
	// NoAudit strips the client's consistency-audit instrumentation
	// (throughput benchmarks only; see client.Config.NoAudit).
	NoAudit bool
}

// TopologySpec describes a full deployment: sources, a DAG of replicated
// node groups, and one client.
type TopologySpec struct {
	Sources []TopologySource
	Groups  []NodeGroup
	Client  TopologyClient
	// BucketSize / BoundaryInterval / TickInterval are the
	// serialization-grain defaults applied everywhere.
	BucketSize, BoundaryInterval, TickInterval int64
	// StallTimeout / KeepAlive / AckInterval tune failure detection and
	// output-buffer truncation on every node and the client.
	StallTimeout, KeepAlive, AckInterval int64
}

func (s *TopologySpec) normalize() error {
	if len(s.Sources) == 0 {
		return fmt.Errorf("deploy: topology needs at least one source")
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("deploy: topology needs at least one node group")
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
	for i := range s.Sources {
		src := &s.Sources[i]
		if src.ID == "" {
			return fmt.Errorf("deploy: source %d has no ID", i)
		}
		if src.Stream == "" {
			src.Stream = src.ID
		}
		if src.Rate <= 0 {
			return fmt.Errorf("deploy: source %q has non-positive rate", src.ID)
		}
		if src.BoundaryInterval <= 0 {
			src.BoundaryInterval = s.BoundaryInterval
		}
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Name == "" {
			return fmt.Errorf("deploy: group %d has no name", i)
		}
		if g.Output == "" {
			g.Output = g.Name + ".out"
		}
		if len(g.Inputs) == 0 {
			return fmt.Errorf("deploy: group %q has no inputs", g.Name)
		}
		if g.Replicas < 1 {
			g.Replicas = 1
		}
		if g.Replicas > 26 {
			return fmt.Errorf("deploy: group %q has %d replicas (max 26)", g.Name, g.Replicas)
		}
		if g.Cascade && len(g.Inputs) < 2 {
			return fmt.Errorf("deploy: group %q: cascade needs ≥ 2 inputs", g.Name)
		}
		if g.FailurePolicy == operator.PolicyNone {
			g.FailurePolicy = operator.PolicyProcess
		}
		if g.StabilizationPolicy == operator.PolicyNone {
			g.StabilizationPolicy = operator.PolicyProcess
		}
	}
	if s.Client.Stream == "" {
		s.Client.Stream = s.Groups[len(s.Groups)-1].Output
	}
	if s.Client.BucketSize <= 0 {
		s.Client.BucketSize = s.BucketSize
	}
	if s.Client.Delay <= 0 {
		s.Client.Delay = 50 * runtime.Millisecond
	}
	if s.Client.TentativeWait < 0 {
		s.Client.TentativeWait = 0
	}
	return nil
}

// GroupReplicaID names replica r of a logical node: "n2" + 1 → "n2b".
func GroupReplicaID(group string, replica int) string {
	return fmt.Sprintf("%s%c", group, 'a'+replica)
}

// validateTopology checks stream wiring and rejects cycles among groups.
// Returns each stream's producer group index (-1 for sources).
func validateTopology(s *TopologySpec) (map[string]int, error) {
	producer := make(map[string]int, len(s.Sources)+len(s.Groups))
	for _, src := range s.Sources {
		if _, dup := producer[src.Stream]; dup {
			return nil, fmt.Errorf("deploy: stream %q produced twice", src.Stream)
		}
		producer[src.Stream] = -1
	}
	names := make(map[string]bool, len(s.Groups))
	for gi, g := range s.Groups {
		if names[g.Name] {
			return nil, fmt.Errorf("deploy: duplicate group name %q", g.Name)
		}
		names[g.Name] = true
		if _, dup := producer[g.Output]; dup {
			return nil, fmt.Errorf("deploy: stream %q produced twice", g.Output)
		}
		producer[g.Output] = gi
	}
	for _, g := range s.Groups {
		seen := make(map[string]bool, len(g.Inputs))
		for _, in := range g.Inputs {
			if _, ok := producer[in]; !ok {
				return nil, fmt.Errorf("deploy: group %q consumes unknown stream %q", g.Name, in)
			}
			if seen[in] {
				return nil, fmt.Errorf("deploy: group %q consumes stream %q twice", g.Name, in)
			}
			seen[in] = true
		}
	}
	// Kahn's algorithm over group→group edges; leftovers are a cycle.
	indeg := make([]int, len(s.Groups))
	adj := make([][]int, len(s.Groups))
	for gi, g := range s.Groups {
		for _, in := range g.Inputs {
			if pi := producer[in]; pi >= 0 {
				adj[pi] = append(adj[pi], gi)
				indeg[gi]++
			}
		}
	}
	var queue []int
	for gi := range s.Groups {
		if indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	done := 0
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		done++
		for _, next := range adj[gi] {
			if indeg[next]--; indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if done != len(s.Groups) {
		return nil, fmt.Errorf("deploy: topology cycle among node groups")
	}
	if _, ok := producer[s.Client.Stream]; !ok || producer[s.Client.Stream] < 0 {
		return nil, fmt.Errorf("deploy: client consumes %q, which is not a group output", s.Client.Stream)
	}
	return producer, nil
}

// buildGroupDiagram assembles one replica's query diagram: the serializing
// SUnion (or cascade), the group's operator chain, and the SOutput.
func buildGroupDiagram(s *TopologySpec, g *NodeGroup) (*diagram.Diagram, error) {
	b := diagram.NewBuilder()
	suCfg := func(ports int) operator.SUnionConfig {
		return operator.SUnionConfig{
			Ports:               ports,
			BucketSize:          s.BucketSize,
			Delay:               g.Delay,
			TentativeWait:       g.TentativeWait,
			TentativeBoundaries: g.TentativeBoundaries,
		}
	}
	var last string
	if g.Cascade {
		// Fig. 10: left-deep chain of two-port SUnions.
		for i := 1; i < len(g.Inputs); i++ {
			name := fmt.Sprintf("su%d", i)
			b.Add(operator.NewSUnion(name, suCfg(2)))
			if i == 1 {
				b.Input(g.Inputs[0], name, 0)
			} else {
				b.Connect(fmt.Sprintf("su%d", i-1), name, 0)
			}
			b.Input(g.Inputs[i], name, 1)
			last = name
		}
	} else {
		name := "pass"
		if len(g.Inputs) > 1 {
			name = "merge"
		}
		b.Add(operator.NewSUnion(name, suCfg(len(g.Inputs))))
		for i, in := range g.Inputs {
			b.Input(in, name, i)
		}
		last = name
	}
	if g.Operators != nil {
		for _, op := range g.Operators() {
			b.Add(op)
			b.Connect(last, op.Name(), 0)
			last = op.Name()
		}
	}
	b.Add(operator.NewSOutput("sout"))
	b.Connect(last, "sout", 0)
	b.Output(g.Output, "sout")
	d, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("deploy: group %q: %w", g.Name, err)
	}
	return d, nil
}

// BuildTopology assembles a deployment from an arbitrary DAG spec on a
// fresh virtual-time runtime — the deterministic default. Call Start on
// the result to begin.
func BuildTopology(spec TopologySpec) (*Deployment, error) {
	return BuildTopologyOn(runtime.NewVirtual(), spec)
}

// BuildTopologyOn assembles a deployment from an arbitrary DAG spec on the
// given runtime: every source, node and client schedules exclusively
// through it, so the same spec runs deterministically on a virtual clock
// or paced against real time on a wall clock. Call Start on the result.
func BuildTopologyOn(rt runtime.Runtime, spec TopologySpec) (*Deployment, error) {
	return buildOn(rt, nil, spec, nil)
}

// BuildPartitionOn assembles the slice of a topology owned by one cluster
// worker: only the endpoints in owned (source IDs, replica IDs like "n2b",
// and/or "client") are constructed, on the given fabric — the TCP transport
// in a real cluster. All wiring is by endpoint ID, so the partition
// subscribes to its remote upstreams exactly as it would to local ones.
// Non-owned slots are nil: Deployment.Sources holds owned sources only,
// Nodes rows keep their shape with nil holes, Client may be nil.
func BuildPartitionOn(rt runtime.Runtime, fab fabric.Fabric, spec TopologySpec, owned map[string]bool) (*Deployment, error) {
	if fab == nil {
		return nil, fmt.Errorf("deploy: partition build needs a fabric")
	}
	if owned == nil {
		return nil, fmt.Errorf("deploy: partition build needs an ownership set")
	}
	return buildOn(rt, fab, spec, owned)
}

// buildOn is the shared topology constructor. fab nil means a fresh netsim
// on rt (the single-process default); owned nil means build every endpoint.
func buildOn(rt runtime.Runtime, fab fabric.Fabric, spec TopologySpec, owned map[string]bool) (*Deployment, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	producer, err := validateTopology(&spec)
	if err != nil {
		return nil, err
	}
	if fab == nil {
		net := netsim.New(rt)
		fab = net
	}
	owns := func(id string) bool { return owned == nil || owned[id] }
	dep := &Deployment{
		RT:          rt,
		Fab:         fab,
		Topology:    &spec,
		groupIndex:  make(map[string]int, len(spec.Groups)),
		sourceIndex: make(map[string]int, len(spec.Sources)),
	}
	if net, ok := fab.(*netsim.Net); ok {
		dep.Net = net
	}
	if vc, ok := rt.(*runtime.VirtualClock); ok {
		dep.Sim = vc
	}

	for i, ss := range spec.Sources {
		if !owns(ss.ID) {
			continue
		}
		payload := ss.Payload
		if payload == nil {
			idx := int64(i + 1)
			var p [2]int64
			payload = func(seq uint64) []int64 {
				p[0], p[1] = int64(seq), idx
				return p[:]
			}
		}
		dep.Sources = append(dep.Sources, source.New(rt, fab, source.Config{
			ID:               ss.ID,
			Stream:           ss.Stream,
			Rate:             ss.Rate,
			TickInterval:     spec.TickInterval,
			BoundaryInterval: ss.BoundaryInterval,
			Payload:          payload,
			LogCap:           ss.LogCap,
		}))
		dep.sourceIndex[ss.ID] = len(dep.Sources) - 1
	}

	// producersOf maps a stream to the endpoints able to serve it, in
	// replica-preference order (Table II switching tries them in order).
	producersOf := func(stream string) []string {
		if gi := producer[stream]; gi >= 0 {
			g := &spec.Groups[gi]
			eps := make([]string, g.Replicas)
			for r := 0; r < g.Replicas; r++ {
				eps[r] = GroupReplicaID(g.Name, r)
			}
			return eps
		}
		for _, ss := range spec.Sources {
			if ss.Stream == stream {
				return []string{ss.ID}
			}
		}
		return nil
	}
	// consumers maps each group output to the endpoints expected to ack
	// it (downstream replicas, plus the client on its stream).
	consumers := make(map[string][]string)
	for _, g := range spec.Groups {
		for _, in := range g.Inputs {
			if producer[in] >= 0 {
				for r := 0; r < g.Replicas; r++ {
					consumers[in] = append(consumers[in], GroupReplicaID(g.Name, r))
				}
			}
		}
	}
	consumers[spec.Client.Stream] = append(consumers[spec.Client.Stream], "client")

	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		row := make([]*node.Node, g.Replicas)
		for r := 0; r < g.Replicas; r++ {
			if !owns(GroupReplicaID(g.Name, r)) {
				continue
			}
			d, err := buildGroupDiagram(&spec, g)
			if err != nil {
				return nil, err
			}
			var peers []string
			for p := 0; p < g.Replicas; p++ {
				if p != r {
					peers = append(peers, GroupReplicaID(g.Name, p))
				}
			}
			ups := make(map[string][]string, len(g.Inputs))
			for _, in := range g.Inputs {
				ups[in] = producersOf(in)
			}
			n, err := node.New(rt, fab, d, node.Config{
				ID:                  GroupReplicaID(g.Name, r),
				Capacity:            g.Capacity,
				FailurePolicy:       g.FailurePolicy,
				StabilizationPolicy: g.StabilizationPolicy,
				StallTimeout:        spec.StallTimeout,
				Peers:               peers,
				Upstreams:           ups,
				Downstreams:         map[string][]string{g.Output: consumers[g.Output]},
				BufferMode:          g.BufferMode,
				BufferCap:           g.BufferCap,
				FineGrained:         g.FineGrained,
				CM:                  node.CMConfig{KeepAlive: spec.KeepAlive},
				AckInterval:         spec.AckInterval,
			})
			if err != nil {
				return nil, fmt.Errorf("deploy: group %q replica %d: %w", g.Name, r, err)
			}
			row[r] = n
		}
		dep.Nodes = append(dep.Nodes, row)
		dep.groupIndex[g.Name] = gi
	}

	if !owns("client") {
		return dep, nil
	}
	cl, err := client.New(rt, fab, client.Config{
		ID:                  "client",
		Stream:              spec.Client.Stream,
		Upstreams:           producersOf(spec.Client.Stream),
		BucketSize:          spec.Client.BucketSize,
		Delay:               spec.Client.Delay,
		TentativeWait:       spec.Client.TentativeWait,
		StallTimeout:        spec.StallTimeout,
		CM:                  node.CMConfig{KeepAlive: spec.KeepAlive},
		AckInterval:         spec.AckInterval,
		TentativeBoundaries: spec.Client.TentativeBoundaries,
		NoAudit:             spec.Client.NoAudit,
	})
	if err != nil {
		return nil, err
	}
	dep.Client = cl
	return dep, nil
}

// Group returns the replica row of a logical node group, or nil.
func (d *Deployment) Group(name string) []*node.Node {
	gi, ok := d.groupIndex[name]
	if !ok {
		return nil
	}
	return d.Nodes[gi]
}

// GroupNames returns the logical node names in build order.
func (d *Deployment) GroupNames() []string {
	if d.Topology == nil {
		return nil
	}
	names := make([]string, len(d.Topology.Groups))
	for i, g := range d.Topology.Groups {
		names[i] = g.Name
	}
	return names
}

// SourceByID returns the source with the given endpoint ID, or nil.
func (d *Deployment) SourceByID(id string) *source.Source {
	i, ok := d.sourceIndex[id]
	if !ok {
		return nil
	}
	return d.Sources[i]
}
