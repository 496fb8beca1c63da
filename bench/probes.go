package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/engine"
	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/operator"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/source"
	"borealis/internal/transport"
	"borealis/internal/tuple"
)

// Layer probes: each layer is built standalone from its public constructor
// and driven with the message stream recorded from the workload, timed
// around the public call. A probe measures one replica per node group
// (replica "a"); the stacked table scales by the units that crossed the
// layer in the whole deployment.
//
// On chain_recovery the recorded stream carries the tentative tuples and
// replays of the fault, but a standalone layer has no consistency manager:
// no checkpoint is taken and none restored, so the probes there explain the
// per-tuple correction path and not checkpoint/redo itself.

// recMsg is one message delivered to a node or client handler.
type recMsg struct {
	at       int64 // virtual µs at delivery
	from, to string
	msg      any
	// policy is the receiving node's SUnion policy at delivery: the
	// consistency manager's decisions, which a standalone engine or
	// SUnion has nobody to make for it, replayed from the recording.
	policy operator.DelayPolicy
}

// recording is the message stream of one virtual run of a workload's spec.
type recording struct {
	spec *scenario.Spec
	clk  rtpkg.Clock // the recording run's clock
	// byEndpoint holds the DataMsgs each endpoint received, in order,
	// until recordCap tuples; all holds every message of the run in
	// delivery order until recordCap messages.
	byEndpoint map[string][]recMsg
	tuplesAt   map[string]int
	all        []recMsg
	sunionOf   map[string]*operator.SUnion // each endpoint's input SUnion

	// Whole-run unit counts, uncapped.
	nodeTuples, clientTuples uint64 // DataMsg tuples delivered
	produced, processed      uint64
	events                   uint64 // clock events fired
	netDelivered             uint64 // netsim deliveries (sources' included)
	replicas, probed         int    // node replicas in the deployment; groups (one probed replica each)
}

// recordCap bounds what one endpoint's recording keeps, in tuples, and the
// global message list, in messages.
const recordCap = 1 << 20

func (r *recording) handler(id string, l layerID, h fabric.Handler) fabric.Handler {
	return func(from string, msg any) {
		at := r.clk.Now()
		policy := operator.PolicyNone
		if su := r.sunionOf[id]; su != nil {
			policy = su.Policy()
		}
		if len(r.all) < recordCap {
			r.all = append(r.all, recMsg{at: at, from: from, to: id, msg: msg})
		}
		if dm, ok := msg.(node.DataMsg); ok {
			if l == lyClient {
				r.clientTuples += uint64(len(dm.Tuples))
			} else {
				r.nodeTuples += uint64(len(dm.Tuples))
			}
			if r.tuplesAt[id] < recordCap {
				r.tuplesAt[id] += len(dm.Tuples)
				r.byEndpoint[id] = append(r.byEndpoint[id], recMsg{at: at, from: from, to: id, msg: dm, policy: policy})
			}
		}
		h(from, msg)
	}
}

// record runs the workload's spec once on a bare VirtualClock with every
// node and client handler interposed, keeping the delivered messages.
func record(name string, seed int64, durationS float64) (*recording, error) {
	spec, err := Generate(name, seed, durationS)
	if err != nil {
		return nil, err
	}
	rec := &recording{spec: spec, byEndpoint: map[string][]recMsg{}, tuplesAt: map[string]int{}, sunionOf: map[string]*operator.SUnion{}}
	var dep *deploy.Deployment
	s, err := virtualRep(name, seed, durationS, nil, func(d *deploy.Deployment) {
		dep = d
		rec.clk = d.RT
		for _, row := range d.Nodes {
			rec.probed++
			for _, n := range row {
				rec.replicas++
				rec.sunionOf[n.ID()] = firstSUnion(n)
			}
		}
		wrapHandlers(d, rec.handler)
	})
	if err != nil {
		return nil, err
	}
	rec.produced, rec.processed = s.produced, s.processed
	if dep.Sim != nil {
		rec.events = dep.Sim.Processed()
	}
	if dep.Net != nil {
		rec.netDelivered = dep.Net.Delivered
	}
	return rec, nil
}

func firstSUnion(n *node.Node) *operator.SUnion {
	d := n.Engine().Diagram()
	if names := d.SUnions(); len(names) > 0 {
		return d.Op(names[0]).(*operator.SUnion)
	}
	return nil
}

// probeStat is one probe's outcome: total time and allocations over units
// of work (tuples, messages, events or frames).
type probeStat struct {
	ns, allocs, units float64
}

func (p probeStat) perUnit() float64 {
	if p.units == 0 {
		return 0
	}
	return p.ns / p.units
}

func (p probeStat) allocsPerUnit() float64 {
	if p.units == 0 {
		return 0
	}
	return p.allocs / p.units
}

func (p *probeStat) add(o probeStat) {
	p.ns += o.ns
	p.allocs += o.allocs
	p.units += o.units
}

// measure times fn and counts its heap allocations.
func measure(fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
}

// sinkFabric is the fabric of a standalone layer: it keeps the registered
// handlers so a probe can hand a layer its messages, and swallows what the
// layer sends.
type sinkFabric struct{ handlers map[string]fabric.Handler }

func newSink() *sinkFabric { return &sinkFabric{handlers: map[string]fabric.Handler{}} }

func (s *sinkFabric) Register(id string, h fabric.Handler) { s.handlers[id] = h }
func (s *sinkFabric) SetDown(string, bool)                 {}
func (s *sinkFabric) Send(string, string, any)             {}

// probeSet is every probe's outcome for one workload, by probe name:
// source, netsim, vclock, wclock, inputmgr, engine, outbuf, client, sunion,
// stateless, soutput, sjoin, aggregate, encode, decode, tcp.
type probeSet struct {
	st map[string]probeStat
	// Deterministic side counts of the recording and the probes.
	sjoinState, aggWindows             int
	codecBytes, codecFrames, tcpFrames float64
}

func (ps *probeSet) add(name string, st probeStat) {
	cur := ps.st[name]
	cur.add(st)
	ps.st[name] = cur
}

// probeRounds is how many times the whole probe set is run; each probe
// reports the median round.
const probeRounds = 3

// freshDeployment builds the recording's spec again, unstarted: probes take
// nodes, diagrams and operators from it so each is measured from its
// pristine state with exactly the workload's configuration.
func freshDeployment(rec *recording) (*deploy.Deployment, error) {
	return scenario.Build(rec.spec.Clone(), scenario.Options{NoAudit: true})
}

// replicaA returns the first replica of every node group.
func replicaA(dep *deploy.Deployment) []*node.Node {
	var out []*node.Node
	for _, row := range dep.Nodes {
		if len(row) > 0 && row[0] != nil {
			out = append(out, row[0])
		}
	}
	return out
}

// dataAndBoundaries strips the correction tuples (UNDO, REC_DONE) a real
// InputManager consumes itself instead of forwarding into the engine.
func dataAndBoundaries(ts []tuple.Tuple) []tuple.Tuple {
	for i := range ts {
		if ts[i].Type == tuple.Undo || ts[i].Type == tuple.RecDone {
			out := make([]tuple.Tuple, 0, len(ts))
			for _, t := range ts {
				if t.Type != tuple.Undo && t.Type != tuple.RecDone {
					out = append(out, t)
				}
			}
			return out
		}
	}
	return ts
}

func runProbes(rec *recording) (*probeSet, error) {
	steps := []func(*recording, *probeSet) error{
		probeSource, probeNetsim, probeClocks, probeInputMgr, probeEngine,
		probeOperators, probeClient, probeCodec, probeTCP,
	}
	var rounds []*probeSet
	for r := 0; r < probeRounds; r++ {
		ps := &probeSet{st: map[string]probeStat{}}
		for _, step := range steps {
			runtime.GC()
			if err := step(rec, ps); err != nil {
				return nil, err
			}
		}
		rounds = append(rounds, ps)
	}
	// Units and side counts repeat exactly; time and allocations take the
	// median round.
	out := rounds[0]
	for name, st := range out.st {
		var ns, allocs []float64
		for _, ps := range rounds {
			ns = append(ns, ps.st[name].ns)
			allocs = append(allocs, ps.st[name].allocs)
		}
		st.ns, st.allocs = median(ns), median(allocs)
		out.st[name] = st
	}
	return out, nil
}

// probeSource drives each source of the spec standalone: source.New plus
// its ticker, flushing to one subscriber on a sink fabric.
func probeSource(rec *recording, ps *probeSet) error {
	dep, err := freshDeployment(rec)
	if err != nil {
		return err
	}
	for i, s := range dep.Sources {
		vc := rtpkg.NewVirtual()
		sink := newSink()
		idx := int64(i + 1)
		var arena tuple.I64Arena
		src := source.New(vc, sink, source.Config{
			ID: s.ID(), Stream: s.Stream(), Rate: s.Rate(),
			TickInterval:     int64(rec.spec.Defaults.TickMS * 1e3),
			BoundaryInterval: int64(rec.spec.Defaults.BoundaryMS * 1e3),
			Payload: func(seq uint64) []int64 {
				p := arena.Alloc(2)
				p[0], p[1] = int64(seq), idx
				return p
			},
		})
		sink.handlers[s.ID()]("probe", node.SubscribeMsg{Stream: s.Stream()})
		src.Start()
		ns, allocs := measure(func() { vc.RunFor(int64(rec.spec.DurationS * 1e6)) })
		ps.add("source", probeStat{ns: ns, allocs: allocs, units: float64(src.Produced)})
	}
	return nil
}

// probeNetsim replays every recorded message through a fresh netsim to
// no-op handlers at its recorded instant.
func probeNetsim(rec *recording, ps *probeSet) error {
	vc := rtpkg.NewVirtual()
	net := netsim.New(vc)
	noop := func(string, any) {}
	for _, m := range rec.all {
		net.Register(m.from, noop)
		net.Register(m.to, noop)
	}
	ns, allocs := measure(func() {
		for i := range rec.all {
			m := &rec.all[i]
			vc.RunUntil(m.at)
			net.Send(m.from, m.to, m.msg)
		}
		vc.Run()
	})
	ps.add("netsim", probeStat{ns: ns, allocs: allocs, units: float64(len(rec.all))})
	return nil
}

// probeClocks times scheduling and firing a no-op event on each clock, a
// few hundred pending at a time like a running deployment.
func probeClocks(rec *recording, ps *probeSet) error {
	const batch, rounds = 256, 2000
	noop := func(any) {}
	drive := func(rt rtpkg.Runtime) probeStat {
		ns, allocs := measure(func() {
			for r := 0; r < rounds; r++ {
				for j := 0; j < batch; j++ {
					rt.AfterCall(int64(j%16), noop, nil)
				}
				rt.RunFor(16)
			}
		})
		return probeStat{ns: ns, allocs: allocs, units: batch * rounds}
	}
	ps.add("vclock", drive(rtpkg.NewVirtual()))
	// An unpaced wall clock: every event is already due, so the cost is
	// the heap, the mutex and the time.Now of the pacing check.
	ps.add("wclock", drive(rtpkg.NewWall(1e9)))
	return nil
}

// probeInputMgr hands replica a's recorded DataMsgs to its InputManagers.
// The node's clock is never run, so the engine only queues what the manager
// forwards: the timed cost is classification, logging and the forward.
func probeInputMgr(rec *recording, ps *probeSet) error {
	dep, err := freshDeployment(rec)
	if err != nil {
		return err
	}
	for _, n := range replicaA(dep) {
		msgs := rec.byEndpoint[n.ID()]
		live := map[string]string{}
		var units float64
		var spent time.Duration
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range msgs {
			dm := msgs[i].msg.(node.DataMsg)
			im := n.Input(dm.Stream)
			if im == nil {
				continue
			}
			if live[dm.Stream] != msgs[i].from {
				live[dm.Stream] = msgs[i].from
				im.SetConnections(msgs[i].from, "", false)
			}
			t0 := time.Now()
			im.Handle(msgs[i].from, dm.Seq, dm.Tuples)
			spent += time.Since(t0)
			units += float64(len(dm.Tuples))
		}
		runtime.ReadMemStats(&m1)
		ps.add("inputmgr", probeStat{ns: float64(spent.Nanoseconds()), allocs: float64(m1.Mallocs - m0.Mallocs), units: units})
	}
	return nil
}

// probeEngine runs replica a's diagram on a standalone engine: Ingest of
// the recorded batches at their recorded instants, output to a counting
// callback — dispatch plus every operator, no node around it.
func probeEngine(rec *recording, ps *probeSet) error {
	dep, err := freshDeployment(rec)
	if err != nil {
		return err
	}
	for _, n := range replicaA(dep) {
		msgs := rec.byEndpoint[n.ID()]
		vc := rtpkg.NewVirtual()
		e := engine.New(vc, n.Engine().Diagram(), engine.Config{})
		var out uint64
		e.OnOutput(func(string, tuple.Tuple) { out++ })
		e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { out += uint64(len(ts)) })
		e.OnSignal(func(operator.Signal) {})
		policy := operator.PolicyNone
		ns, allocs := measure(func() {
			for i := range msgs {
				dm := msgs[i].msg.(node.DataMsg)
				vc.RunUntil(msgs[i].at)
				if msgs[i].policy != policy {
					policy = msgs[i].policy
					e.SetPolicyAll(policy)
				}
				e.Ingest(dm.Stream, dataAndBoundaries(dm.Tuples))
			}
			vc.Run()
		})
		ps.add("engine", probeStat{ns: ns, allocs: allocs, units: float64(e.Processed)})
	}
	return nil
}

// opSlot is one message's worth of an operator's input in the
// operator-at-a-time replay: the previous operator's output for that slot.
type opSlot struct {
	at     int64
	port   int
	policy operator.DelayPolicy
	ts     []tuple.Tuple
}

// probeOperators replays each node diagram one operator at a time: the
// SUnion on the recorded input batches, every later operator on its
// upstream's collected output, each attached to a collecting Env and timed
// around ProcessBatch (or Process where the operator declines or has no
// batch form). The last operator's output feeds the OutputBuffer probe.
func probeOperators(rec *recording, ps *probeSet) error {
	dep, err := freshDeployment(rec)
	if err != nil {
		return err
	}
	for _, n := range replicaA(dep) {
		d := n.Engine().Diagram()
		msgs := rec.byEndpoint[n.ID()]
		slots := make([]opSlot, 0, len(msgs))
		for i := range msgs {
			dm := msgs[i].msg.(node.DataMsg)
			in, ok := d.InputBinding(dm.Stream)
			if !ok {
				continue
			}
			slots = append(slots, opSlot{at: msgs[i].at, port: in.Port, policy: msgs[i].policy, ts: dataAndBoundaries(dm.Tuples)})
		}
		// The engine latches a node diverged from the first tentative
		// tuple that flows between its operators (until a restore, which
		// a standalone replay never does): from that slot on SOutput
		// labels everything tentative, as it does in the run.
		divergedFrom := len(slots)
		for _, name := range d.TopoOrder() {
			op := d.Op(name)
			next, stat := runOperator(op, slots, divergedFrom, func() {
				switch o := op.(type) {
				case *operator.SJoin:
					if s := o.StateSize(); s > ps.sjoinState {
						ps.sjoinState = s
					}
				case *operator.Aggregate:
					if w := o.OpenWindows(); w > ps.aggWindows {
						ps.aggWindows = w
					}
				}
			})
			switch op.(type) {
			case *operator.SUnion:
				ps.add("sunion", stat)
			case *operator.Filter, *operator.Map:
				ps.add("stateless", stat)
			case *operator.SOutput:
				ps.add("soutput", stat)
			case *operator.SJoin:
				ps.add("sjoin", stat)
			case *operator.Aggregate:
				ps.add("aggregate", stat)
			}
			port := 0
			if edges := d.Downstream(name); len(edges) > 0 {
				port = edges[0].Port
			}
			for i := range next {
				next[i].port = port
				if i < divergedFrom && hasTentative(next[i].ts) {
					divergedFrom = i
				}
			}
			slots = next
		}
		outs := d.Outputs()
		if len(outs) == 0 {
			continue
		}
		ps.add("outbuf", probeOutputBuffer(n.ID(), outs[0].Stream, slots, int64(rec.spec.Defaults.AckIntervalMS*1e3)))
	}
	return nil
}

// runOperator drives one operator over its input slots and returns what it
// emitted per slot, timing only the operator's own calls. Its Env takes the
// EmitLoan zero-copy hand-off the way the engine's staged plane does, and
// whatever the operator emitted is copied out after the clock stops, before
// the operator can reuse the loaned array. Timers the operator arms run on
// a private virtual clock advanced to each slot's instant.
func runOperator(op operator.Operator, in []opSlot, divergedFrom int, after func()) ([]opSlot, probeStat) {
	vc := rtpkg.NewVirtual()
	out := make([]opSlot, len(in))
	slot := 0
	var cur []tuple.Tuple // this slot's emissions
	loaned := false       // cur aliases an array the operator owns
	own := func() {
		if loaned {
			cur, loaned = append([]tuple.Tuple(nil), cur...), false
		}
	}
	op.Attach(&operator.Env{
		Emit: func(t tuple.Tuple) { own(); cur = append(cur, t) },
		EmitBatch: func(ts []tuple.Tuple) {
			own()
			cur = append(cur, ts...)
		},
		EmitLoan: func(ts []tuple.Tuple) bool {
			if len(cur) == 0 && len(ts) > 0 {
				cur, loaned = ts, true
				return true
			}
			own()
			cur = append(cur, ts...)
			return false
		},
		Now:      vc.Now,
		After:    vc.After,
		Signal:   func(operator.Signal) {},
		Diverged: func() bool { return slot >= divergedFrom },
	})
	su, _ := op.(*operator.SUnion)
	bp, _ := op.(operator.BatchProcessor)
	_, mutates := op.(operator.MutatesBatch)
	var units float64
	var spent time.Duration
	for i := range in {
		slot = i
		ts := in[i].ts
		units += float64(len(ts))
		if mutates {
			// The operator rewrites its input frame in place; the
			// recording's arrays belong to the recording.
			ts = append([]tuple.Tuple(nil), ts...)
		}
		cur, loaned = make([]tuple.Tuple, 0, len(ts)+8), false
		t0 := time.Now()
		vc.RunUntil(in[i].at)
		if su != nil {
			su.SetPolicy(in[i].policy)
		}
		if bp == nil || !bp.ProcessBatch(in[i].port, ts) {
			for j := range ts {
				op.Process(in[i].port, ts[j])
			}
		}
		spent += time.Since(t0)
		own()
		out[i] = opSlot{at: in[i].at, ts: cur}
		after()
	}
	return out, probeStat{ns: float64(spent.Nanoseconds()), units: units}
}

func hasTentative(ts []tuple.Tuple) bool {
	for i := range ts {
		if ts[i].Type == tuple.Tentative {
			return true
		}
	}
	return false
}

// probeOutputBuffer publishes a node's output batches into a standalone
// OutputBuffer with one subscriber on a sink fabric, flushes included. The
// subscriber acknowledges at the spec's ack interval, so the buffer is
// truncated as it is in the run.
func probeOutputBuffer(self, stream string, slots []opSlot, ackEveryUS int64) probeStat {
	vc := rtpkg.NewVirtual()
	sink := newSink()
	ob := node.NewOutputBuffer(vc, sink, self, stream, node.BufferUnbounded, 0, []string{"probe"})
	ob.Subscribe("probe", node.SubscribeMsg{Stream: stream})
	var units float64
	var lastID uint64
	nextAck := ackEveryUS
	ns, allocs := measure(func() {
		for i := range slots {
			ts := slots[i].ts
			if len(ts) == 0 {
				continue
			}
			vc.RunUntil(slots[i].at)
			ob.PublishBatch(ts)
			units += float64(len(ts))
			for j := len(ts) - 1; j >= 0; j-- {
				if ts[j].Type == tuple.Insertion {
					lastID = ts[j].ID
					break
				}
			}
			if ackEveryUS > 0 && slots[i].at >= nextAck {
				ob.Ack("probe", lastID)
				nextAck = slots[i].at + ackEveryUS
			}
		}
		vc.Run()
	})
	return probeStat{ns: ns, allocs: allocs, units: units}
}

// probeClient drives a standalone client endpoint — proxy node plus the
// audit-free consume — with the DataMsgs the workload's client received.
func probeClient(rec *recording, ps *probeSet) error {
	msgs := rec.byEndpoint["client"]
	if len(msgs) == 0 {
		return nil
	}
	stream := msgs[0].msg.(node.DataMsg).Stream
	bucketMS := rec.spec.Client.BucketMS
	if bucketMS == 0 {
		bucketMS = rec.spec.Defaults.BucketMS
	}
	vc := rtpkg.NewVirtual()
	cl, err := client.New(vc, newSink(), client.Config{
		ID: "client", Stream: stream, Upstreams: []string{msgs[0].from},
		BucketSize: int64(bucketMS * 1e3), Delay: int64(rec.spec.Client.DelayMS * 1e3),
		NoAudit: true,
	})
	if err != nil {
		return fmt.Errorf("client probe: %w", err)
	}
	var delivered float64
	cl.OnDeliver(func(d client.Delivery) {
		if d.Tuple.IsData() {
			delivered++
		}
	})
	proxy := cl.Proxy()
	live := ""
	ns, allocs := measure(func() {
		for i := range msgs {
			if live != msgs[i].from {
				live = msgs[i].from
				proxy.Input(stream).SetConnections(live, "", false)
			}
			vc.RunUntil(msgs[i].at)
			proxy.HandleMessage(msgs[i].from, msgs[i].msg)
		}
		vc.RunFor(int64(time.Second / time.Microsecond))
	})
	ps.add("client", probeStat{ns: ns, allocs: allocs, units: delivered})
	return nil
}

// wireMsgs picks the DataMsgs of the busiest recorded endpoint: the frames
// the codec and socket probes carry.
func wireMsgs(rec *recording) []recMsg {
	var best []recMsg
	for _, id := range sortedKeys(rec.byEndpoint) {
		if ms := rec.byEndpoint[id]; rec.tuplesAt[id] > tuplesOf(best) {
			best = ms
		}
	}
	return best
}

func tuplesOf(ms []recMsg) int {
	n := 0
	for i := range ms {
		n += len(ms[i].msg.(node.DataMsg).Tuples)
	}
	return n
}

// probeCodec encodes the recorded DataMsgs into a reused buffer and decodes
// the frames back.
func probeCodec(rec *recording, ps *probeSet) error {
	msgs := wireMsgs(rec)
	frames := make([][]byte, 0, len(msgs))
	var buf []byte
	var tuples, bytes float64
	var encErr error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var enc time.Duration
	for i := range msgs {
		t0 := time.Now()
		buf, encErr = transport.AppendFrame(buf[:0], msgs[i].from, msgs[i].to, msgs[i].msg)
		enc += time.Since(t0)
		if encErr != nil {
			return fmt.Errorf("codec probe: %w", encErr)
		}
		frames = append(frames, append([]byte(nil), buf...)) // untimed copy for the decode pass
		tuples += float64(len(msgs[i].msg.(node.DataMsg).Tuples))
		bytes += float64(len(buf))
	}
	runtime.ReadMemStats(&m1)
	encAllocs := float64(m1.Mallocs-m0.Mallocs) - float64(len(frames)) // minus the copies
	decNS, decAllocs := measure(func() {
		for _, f := range frames {
			if _, _, _, err := transport.DecodeFrame(f[4:]); err != nil {
				encErr = err
			}
		}
	})
	if encErr != nil {
		return fmt.Errorf("codec probe: %w", encErr)
	}
	ps.add("encode", probeStat{ns: float64(enc.Nanoseconds()), allocs: encAllocs, units: tuples})
	ps.add("decode", probeStat{ns: decNS, allocs: decAllocs, units: tuples})
	ps.codecBytes, ps.codecFrames = bytes, float64(len(frames))
	return nil
}

// tcpWindow is how many frames the socket probe keeps in flight: well under
// the transport's peer queue, so no data frame is shed.
const tcpWindow = 1024

// probeTCP sends the recorded DataMsgs over a loopback transport.TCP pair,
// Send to handler: codec, per-pair writer, socket, read loop and the
// WallClock injection of the receiving side.
func probeTCP(rec *recording, ps *probeSet) error {
	msgs := wireMsgs(rec)
	if len(msgs) == 0 {
		return nil
	}
	clkA, clkB := rtpkg.NewWall(1), rtpkg.NewWall(1)
	trA, err := transport.Listen(clkA, transport.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer trA.Close()
	trB, err := transport.Listen(clkB, transport.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer trB.Close()
	var delivered atomic.Uint64
	trA.Register("src", func(string, any) {})
	trB.Register("dst", func(string, any) { delivered.Add(1) })
	trA.AddRoute("dst", trB.Addr())

	var stop atomic.Bool
	loopDone := make(chan struct{})
	go func() { // the receiving side's run loop
		defer close(loopDone)
		for !stop.Load() {
			clkB.RunFor(20_000)
		}
	}()
	var tuples float64
	deadline := time.Now().Add(60 * time.Second)
	t0 := time.Now()
	for i := range msgs {
		for uint64(i)-delivered.Load() >= tcpWindow && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
		trA.Send("src", "dst", msgs[i].msg)
		tuples += float64(len(msgs[i].msg.(node.DataMsg).Tuples))
	}
	for delivered.Load() < uint64(len(msgs)) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
	elapsed := time.Since(t0)
	stop.Store(true)
	<-loopDone
	if got := delivered.Load(); got < uint64(len(msgs)) {
		return fmt.Errorf("tcp probe: %d of %d frames delivered", got, len(msgs))
	}
	ps.add("tcp", probeStat{ns: float64(elapsed.Nanoseconds()), units: tuples})
	ps.tcpFrames = float64(len(msgs))
	return nil
}
