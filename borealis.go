// Package borealis is a from-scratch Go implementation of DPC (Delay,
// Process, and Correct), the fault-tolerance protocol of the Borealis
// distributed stream processing engine (Balazinska, Balakrishnan, Madden,
// Stonebraker — "Fault-Tolerance in the Borealis Distributed Stream
// Processing System", SIGMOD 2005 / TODS).
//
// The library contains a complete single-node stream processing engine
// (Filter, Map, Aggregate, SJoin, Union operators over timestamped tuple
// streams), the DPC extensions (SUnion serialization with boundary tuples,
// SOutput stream stabilization, tentative/undo/rec-done tuple semantics,
// checkpoint/redo reconciliation), and a distributed layer (replicated
// processing nodes, consistency managers with keep-alive monitoring and
// Table II upstream switching, the inter-replica stagger protocol, DPC
// data sources and client proxies) — all running on a deterministic
// virtual-time simulator with a failure-injecting network.
//
// # Quick start
//
// A run is described by a scenario spec (docs/SCENARIOS.md): the topology,
// the workload and a timed fault schedule.
//
//	spec, err := borealis.ParseScenario([]byte(`{
//	  "name": "quickstart", "duration_s": 60,
//	  "defaults": {"delay_s": 2, "replicas": 2},
//	  "sources": [{"name": "s", "count": 3, "rate": 500}],
//	  "nodes": [{"name": "n1", "inputs": ["s"]}],
//	  "faults": [{"kind": "disconnect", "source": "s2", "at_s": 10, "duration_s": 5}]
//	}`))
//	if err != nil { ... }
//	dep, err := borealis.BuildScenario(spec, borealis.ScenarioOptions{})
//	if err != nil { ... }
//	dep.Start()
//	dep.RunFor(60 * borealis.Second)
//	fmt.Printf("%+v\n", dep.Client.Stats())
//
// RunScenario runs the same spec and returns its metrics report instead.
//
// Custom query diagrams are assembled with NewDiagramBuilder and executed
// on processing nodes via NewNode; see examples/ for complete programs.
package borealis

import (
	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/diagram"
	"borealis/internal/fuzz"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/source"
	"borealis/internal/tuple"
)

// Time units, in microseconds of clock time (virtual or scaled wall).
const (
	Microsecond = runtime.Microsecond
	Millisecond = runtime.Millisecond
	Second      = runtime.Second
)

// Execution substrate: the Clock scheduling seam and its two runtimes.
type (
	// Clock is the scheduling interface every component runs against;
	// see docs/RUNTIME.md for the contract.
	Clock = runtime.Clock
	// Timer is a cancelable scheduled callback.
	Timer = runtime.Timer
	// Ticker is a periodic callback.
	Ticker = runtime.Ticker
	// VirtualClock is the deterministic simulation runtime.
	VirtualClock = runtime.VirtualClock
	// WallClock is the real-time runtime (optionally time-scaled).
	WallClock = runtime.WallClock
	// Net is the simulated network: reliable in-order links with
	// partitions and crash failures.
	Net = netsim.Net
)

// Runtime is the entry point tying a clock to the build/run surface: the
// same topology specs and scenario files execute on either substrate.
//
//	rt := borealis.NewSimRuntime()            // deterministic, instant
//	rt := borealis.NewRealtimeRuntime(100)    // wall clock at 100×
//	dep, err := rt.BuildTopology(spec)
//	rep, err := rt.RunScenario(scn, opts)
type Runtime struct {
	rt runtime.Runtime
}

// NewSimRuntime returns a virtual-time runtime: runs are deterministic,
// bit-identical across repetitions, and execute as fast as the CPU allows.
func NewSimRuntime() *Runtime { return &Runtime{rt: runtime.NewVirtual()} }

// NewRealtimeRuntime returns a wall-clock runtime. Speed scales time:
// 1 is true real time, 100 packs 100 virtual seconds into one wall second,
// 0 means 1. Scheduling stays single-threaded through the run loop; see
// docs/RUNTIME.md for the wall-clock caveats.
func NewRealtimeRuntime(speed float64) *Runtime {
	return &Runtime{rt: runtime.NewWall(speed)}
}

// Clock exposes the runtime's scheduling surface.
func (r *Runtime) Clock() Clock { return r.rt }

// RunFor drives the runtime for d microseconds of clock time.
func (r *Runtime) RunFor(d int64) { r.rt.RunFor(d) }

// BuildTopology assembles a deployment on this runtime's clock.
func (r *Runtime) BuildTopology(spec TopologySpec) (*Deployment, error) {
	return deploy.BuildTopologyOn(r.rt, spec)
}

// RunScenario executes a scenario on this runtime. On a sim runtime the
// report is deterministic (same spec + seed ⇒ identical report); on a
// realtime runtime the run is paced against the wall and the consistency
// reference still executes on a private virtual clock. Scenarios schedule
// from t=0, so the runtime must not have been driven yet — one Runtime
// per scenario run; a reused clock is rejected with an error.
func (r *Runtime) RunScenario(s *Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	opts.Runtime = r.rt
	return scenario.Run(s, opts)
}

// NewNetOn returns a network fabric scheduling on the given clock.
func NewNetOn(clk Clock) *Net { return netsim.New(clk) }

// Data model (§4.1 of the paper).
type (
	// Tuple is a stream element: INSERTION, TENTATIVE, BOUNDARY, UNDO
	// or REC_DONE.
	Tuple = tuple.Tuple
	// TupleType is the tuple_type header field.
	TupleType = tuple.Type
)

// Tuple types.
const (
	Insertion = tuple.Insertion
	Tentative = tuple.Tentative
	Boundary  = tuple.Boundary
	Undo      = tuple.Undo
	RecDone   = tuple.RecDone
)

// Operators.
type (
	// Operator is a query-diagram node.
	Operator = operator.Operator
	// SUnion is the DPC data-serializing operator (§4.2).
	SUnion = operator.SUnion
	// SUnionConfig parameterizes an SUnion.
	SUnionConfig = operator.SUnionConfig
	// SOutput stabilizes output streams (§4.4.2).
	SOutput = operator.SOutput
	// AggregateConfig parameterizes windowed aggregates.
	AggregateConfig = operator.AggregateConfig
	// JoinConfig parameterizes SJoin.
	JoinConfig = operator.JoinConfig
	// AggFunc selects the aggregate function.
	AggFunc = operator.AggFunc
	// DelayPolicy selects the availability/consistency trade-off (§6).
	DelayPolicy = operator.DelayPolicy
)

// Aggregate functions.
const (
	AggCount = operator.AggCount
	AggSum   = operator.AggSum
	AggAvg   = operator.AggAvg
	AggMin   = operator.AggMin
	AggMax   = operator.AggMax
)

// Delay policies (§6).
const (
	PolicyNone    = operator.PolicyNone
	PolicyProcess = operator.PolicyProcess
	PolicyDelay   = operator.PolicyDelay
	PolicySuspend = operator.PolicySuspend
)

// Operator constructors.
var (
	NewFilter    = operator.NewFilter
	NewMap       = operator.NewMap
	NewUnion     = operator.NewUnion
	NewAggregate = operator.NewAggregate
	NewSJoin     = operator.NewSJoin
	NewSUnion    = operator.NewSUnion
	NewSOutput   = operator.NewSOutput
)

// Query diagrams (§2.1).
type (
	// Diagram is a validated loop-free operator graph.
	Diagram = diagram.Diagram
	// DiagramBuilder assembles diagrams.
	DiagramBuilder = diagram.Builder
	// DPCOptions configures the §3 diagram extensions.
	DPCOptions = diagram.DPCOptions
)

// NewDiagramBuilder returns an empty builder.
func NewDiagramBuilder() *DiagramBuilder { return diagram.NewBuilder() }

// Processing nodes, sources and clients.
type (
	// Node is a DPC processing node (§3-§4).
	Node = node.Node
	// NodeConfig parameterizes a node.
	NodeConfig = node.Config
	// StreamState is the advertised consistency state.
	StreamState = node.StreamState
	// BufferMode selects §8.1 output-buffer behaviour.
	BufferMode = node.BufferMode
	// Source is a DPC data source (§2.2).
	Source = source.Source
	// SourceConfig parameterizes a source. Its Payload must be a pure
	// function of the sequence number: the source logs ticks, not
	// tuples, and calls Payload again for every tuple a replay sends.
	SourceConfig = source.Config
	// Client is a DPC client application behind a proxy node.
	Client = client.Client
	// ClientConfig parameterizes a client.
	ClientConfig = client.Config
	// ClientStats are the client-side metrics (Procnew, Ntentative, …).
	ClientStats = client.Stats
	// Delivery is one tuple delivered to a client, with its arrival time.
	Delivery = client.Delivery
)

// Node states (Fig. 5).
const (
	StateStable        = node.StateStable
	StateUpFailure     = node.StateUpFailure
	StateStabilization = node.StateStabilization
	StateFailure       = node.StateFailure
)

// Buffer modes (§8.1).
const (
	BufferUnbounded = node.BufferUnbounded
	BufferBlock     = node.BufferBlock
	BufferSlide     = node.BufferSlide
)

// NewNodeOn builds a processing node scheduling on the given clock.
func NewNodeOn(clk Clock, net *Net, d *Diagram, cfg NodeConfig) (*Node, error) {
	return node.New(clk, net, d, cfg)
}

// NewSourceOn builds a data source scheduling on the given clock.
func NewSourceOn(clk Clock, net *Net, cfg SourceConfig) *Source {
	return source.New(clk, net, cfg)
}

// NewClientOn builds a client and proxy scheduling on the given clock.
func NewClientOn(clk Clock, net *Net, cfg ClientConfig) (*Client, error) {
	return client.New(clk, net, cfg)
}

// Deployments.
type (
	// Deployment is a running system: sources, nodes, client.
	Deployment = deploy.Deployment
	// TopologySpec describes an arbitrary-DAG deployment: sources, a
	// loop-free graph of replicated node groups, and a client.
	TopologySpec = deploy.TopologySpec
	// TopologySource describes one data source of a TopologySpec.
	TopologySource = deploy.TopologySource
	// NodeGroup describes one replicated logical node of a TopologySpec.
	NodeGroup = deploy.NodeGroup
	// TopologyClient configures the client proxy of a TopologySpec.
	TopologyClient = deploy.TopologyClient
)

// BuildTopology assembles a deployment over an arbitrary DAG of replicated
// node groups, with Go operator factories a scenario spec cannot express;
// BuildScenario compiles a scenario spec to it.
func BuildTopology(spec TopologySpec) (*Deployment, error) { return deploy.BuildTopology(spec) }

// GroupReplicaID names replica r of a logical node: ("n2", 1) → "n2b".
func GroupReplicaID(group string, replica int) string {
	return deploy.GroupReplicaID(group, replica)
}

// Scenario engine (declarative topologies + failure schedules).
type (
	// Scenario is a declarative spec: topology, workload shapes and a
	// timed fault schedule (see docs/SCENARIOS.md for the file format).
	Scenario = scenario.Spec
	// ScenarioOptions tunes a scenario run (quick mode, audit skip).
	ScenarioOptions = scenario.Options
	// ScenarioReport is the structured, deterministic metrics report.
	ScenarioReport = scenario.Report
	// SweepSpec varies one numeric scenario field across a range.
	SweepSpec = scenario.SweepSpec
	// SweepRow is one step of a sweep: the applied value and its report.
	SweepRow = scenario.SweepRow
	// GridSpec crosses two sweeps into a Steps₁ × Steps₂ run family.
	GridSpec = scenario.GridSpec
	// GridCell is one cell of a grid: both applied values and the report.
	GridCell = scenario.GridCell
)

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a scenario spec from JSON.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario executes a scenario on the virtual-time simulator and
// returns its metrics report. Same spec + same seed ⇒ identical report.
func RunScenario(s *Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(s, opts)
}

// BuildScenario compiles a scenario into a deployment (workloads and
// faults installed) without running it.
func BuildScenario(s *Scenario, opts ScenarioOptions) (*Deployment, error) {
	return scenario.Build(s, opts)
}

// RunMany executes N independent scenario runs across a worker pool
// (ScenarioOptions.Parallelism; 0 = one worker per core) and returns the
// reports in input order. Each run owns a private virtual clock, so the
// results are byte-identical regardless of worker count.
func RunMany(specs []*Scenario, opts ScenarioOptions) ([]*ScenarioReport, error) {
	return scenario.RunMany(specs, opts)
}

// Sweep varies one scenario field across a range, fanning the steps over
// the RunMany pool, and returns one row per swept value.
func Sweep(base *Scenario, sw SweepSpec, opts ScenarioOptions) ([]SweepRow, error) {
	return scenario.Sweep(base, sw, opts)
}

// Grid crosses two sweeps into a Steps₁ × Steps₂ family of independent
// runs — the paper's two-parameter surfaces (Fig. 19's delay × duration)
// from one call — returned row-major: cell (i, j) at index i·Steps₂ + j.
func Grid(base *Scenario, g GridSpec, opts ScenarioOptions) ([]GridCell, error) {
	return scenario.Grid(base, g, opts)
}

// ReportMetric extracts one scalar metric from a scenario report by name;
// ReportMetricNames lists the valid names.
func ReportMetric(r *ScenarioReport, name string) (float64, error) {
	return scenario.Metric(r, name)
}

// ReportMetricNames are the metric names ReportMetric resolves.
var ReportMetricNames = scenario.MetricNames

// Repeated measurements (seed families).
type (
	// MetricStats are min/mean/max of one metric across a seed family.
	MetricStats = scenario.MetricStats
	// RepeatRow is one swept value run as a seed family.
	RepeatRow = scenario.RepeatRow
)

// SeedFamily returns n clones of a scenario whose seeds derive from
// (base seed, index): repeated measurements of the same topology and
// fault schedule under decorrelated workload jitter. Feed the family to
// RunMany.
func SeedFamily(base *Scenario, n int) []*Scenario { return scenario.SeedFamily(base, n) }

// RepeatStats computes min/mean/max for every report metric across a
// family of reports.
func RepeatStats(reports []*ScenarioReport) ([]MetricStats, error) {
	return scenario.RepeatStats(reports)
}

// SweepRepeat runs every swept value as an n-member seed family through
// the RunMany pool and reports per-value min/mean/max for each metric.
func SweepRepeat(base *Scenario, sw SweepSpec, repeat int, opts ScenarioOptions) ([]RepeatRow, error) {
	return scenario.SweepRepeat(base, sw, repeat, opts)
}

// Crash-consistency fuzzing (see docs/FUZZING.md).
type (
	// FuzzFinding is one oracle violation.
	FuzzFinding = fuzz.Finding
	// ShrinkResult is a minimized failing spec with its findings.
	ShrinkResult = fuzz.ShrinkResult
)

// FuzzSpec deterministically generates a valid random scenario from a
// seed: a layered DAG of replicated node groups, shaped workloads, and a
// fault schedule that goes quiet before the run ends.
func FuzzSpec(seed int64) *Scenario { return fuzz.GenSpec(seed) }

// FuzzCheck audits a scenario report against the structural oracles (no
// wedged SUnion buckets after the schedule goes quiet, no starved stable
// streams, availability and report invariants). The spec must be the one
// the report came from.
func FuzzCheck(s *Scenario, rep *ScenarioReport) []FuzzFinding { return fuzz.Check(s, rep) }

// Shrink minimizes a spec that fails the named oracle by deterministic
// greedy reduction, re-running the oracle at every step; maxRuns bounds
// the reduction budget (0 = default).
func Shrink(s *Scenario, oracle string, maxRuns int) ShrinkResult {
	return fuzz.Shrink(s, oracle, maxRuns)
}

// Soak campaigns: the fuzzer's one campaign runner, from a fixed batch of
// generated specs to long-running, resumable hunts.
type (
	// SoakOptions tunes a soak campaign (seed, batch size, wall budget,
	// mutation pool, checkpoint file).
	SoakOptions = fuzz.SoakOptions
	// SoakState is a campaign's complete progress — the checkpoint on
	// disk and the returned summary are this one structure.
	SoakState = fuzz.SoakState
	// SoakFinding is one unique failure class (oracle + shrunk-spec
	// hash) with its first occurrence and a hit count.
	SoakFinding = fuzz.SoakFinding
)

// Soak runs a fuzzing campaign: batches of fresh generations (interleaved
// with corpus mutants when given a pool) executed through the RunMany pool
// with the Definition 1 audit, oracle-checked, failures shrunk and
// deduplicated, state rewritten to disk after every batch so an
// interrupted soak resumes with byte-identical results. Same options ⇒
// byte-identical state, for any parallelism.
func Soak(opts SoakOptions) (*SoakState, error) { return fuzz.Soak(opts) }

// FuzzMutate derives a new valid scenario from a base spec by applying
// random edits — the shrinker's reductions in reverse (fault
// perturbation, relay-node insertion, rate and replica rescaling).
// Deterministic in (base, seed).
func FuzzMutate(base *Scenario, seed int64) *Scenario { return fuzz.Mutate(base, seed) }

// CheckDifferential runs one spec several ways that must agree —
// virtual vs high-speed wall clock (same stable output), serial vs
// parallel RunMany (byte-identical reports) — and reports divergences
// as "differential" findings, shrinkable like any other class.
func CheckDifferential(s *Scenario) []FuzzFinding { return fuzz.CheckDifferential(s) }
