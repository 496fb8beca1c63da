// Package deploy assembles complete distributed DPC deployments on the
// simulated network: data sources, replicated processing-node graphs, and a
// DPC client proxy. BuildTopology (topology.go) handles arbitrary DAGs of
// replicated node groups; the paper's evaluation topologies are scenario
// specs compiled to it (internal/scenario, internal/experiment).
package deploy

import (
	"borealis/internal/client"
	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/source"
)

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
	// Topology is the generalized spec every deployment compiles to.
	Topology *TopologySpec

	groupIndex  map[string]int
	sourceIndex map[string]int
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
