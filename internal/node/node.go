package node

import (
	"fmt"
	"sort"

	"borealis/internal/diagram"
	"borealis/internal/engine"
	"borealis/internal/fabric"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Config parameterizes a processing node.
type Config struct {
	// ID is the node's network endpoint identifier; the Fig. 9 tie-break
	// compares IDs lexicographically.
	ID string
	// Capacity is the engine's processing rate in tuples/second (0 =
	// infinite); it determines how long reconciliation takes.
	Capacity float64
	// FailurePolicy governs SUnions while a failure is in progress;
	// StabilizationPolicy governs them after the failure heals while the
	// node waits for its turn to reconcile. PolicySuspend as the
	// StabilizationPolicy disables the stagger protocol entirely — the
	// §6.1 "Suspend" variants, where no second version stays available.
	FailurePolicy       operator.DelayPolicy
	StabilizationPolicy operator.DelayPolicy
	// StallTimeout declares an input failed after this much boundary
	// silence (default 200 ms ≈ two boundary intervals).
	StallTimeout int64
	// Peers are the other replicas of this node.
	Peers []string
	// Upstreams maps each input stream to the replica endpoints able to
	// produce it (data sources included), in preference order.
	Upstreams map[string][]string
	// Downstreams maps each output stream to the endpoints expected to
	// consume it; acknowledgments from all of them allow output-buffer
	// truncation (§8.1).
	Downstreams map[string][]string
	// BufferMode / BufferCap bound the output buffers (§8.1).
	BufferMode BufferMode
	BufferCap  int
	// FineGrained enables §8.2: per-output-stream state advertisement
	// and failure policies scoped to the SUnions a failure reaches.
	FineGrained bool
	// CM overrides keep-alive and stagger timing (zero values = defaults).
	CM CMConfig
	// AckInterval paces acknowledgment messages to upstream neighbors
	// (0 disables acks).
	AckInterval int64
	// TapOnly builds no OutputBuffer: the node's output reaches only its
	// OnDeliver tap, and subscriptions and acks for it are ignored. A
	// client proxy hands its output to the application alone (§2.2), so
	// nothing would ever drain or truncate a buffer there.
	TapOnly bool
}

// Node is one DPC processing node: engine + data path + input managers +
// consistency manager + the Fig. 5 state machine.
type Node struct {
	cfg Config
	clk runtime.Clock
	net fabric.Fabric
	eng *engine.Engine
	d   *diagram.Diagram

	inputs     map[string]*InputManager
	inputOrder []string
	outputs    map[string]*OutputBuffer
	outOrder   []string
	cm         *CM

	state  StreamState
	failed map[string]bool
	snap   *engine.Snapshot
	// pristine is the diagram's initial state, kept for crash restarts.
	pristine *engine.Snapshot
	// recovering marks a restarted node rebuilding its state (§4.5): it
	// answers no requests until it has caught up.
	recovering  bool
	restartedAt int64
	// cpSeq guards against a checkpoint callback landing after the epoch
	// it was requested in has ended; cpRequested marks an epoch that has
	// its checkpoint anchored (taken or in flight).
	cpSeq, cpWant uint64
	cpRequested   bool

	ackTicker runtime.Ticker
	down      bool
	onDeliver func(stream string, t tuple.Tuple)
	trace     TraceFn

	// Stats.
	Reconciliations uint64
	Checkpoints     uint64
	UpFailureSigs   uint64
	// reconStart anchors the in-progress reconciliation; reconDurations
	// records each completed one, in clock µs (grant → REC_DONE).
	reconStart     int64
	reconDurations []int64
}

// New builds a node executing the given diagram and registers it on the
// network. Call Start to subscribe to upstreams and begin probing.
func New(clk runtime.Clock, net fabric.Fabric, d *diagram.Diagram, cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("node: empty ID")
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 200 * runtime.Millisecond
	}
	if cfg.FailurePolicy == operator.PolicyNone {
		cfg.FailurePolicy = operator.PolicyProcess
	}
	if cfg.StabilizationPolicy == operator.PolicyNone {
		cfg.StabilizationPolicy = operator.PolicyProcess
	}
	cfg.CM.Stagger = cfg.StabilizationPolicy != operator.PolicySuspend
	n := &Node{
		cfg:     cfg,
		clk:     clk,
		net:     net,
		d:       d,
		inputs:  make(map[string]*InputManager),
		outputs: make(map[string]*OutputBuffer),
		failed:  make(map[string]bool),
		state:   StateStable,
	}
	n.eng = engine.New(clk, d, engine.Config{Capacity: cfg.Capacity})
	n.eng.OnOutput(n.publish)
	n.eng.OnOutputBatch(n.publishBatch)
	n.eng.OnSignal(n.onSignal)
	n.eng.OnIdle(func() { n.maybeFinishRecovery() })
	for _, in := range d.Inputs() {
		stream := in.Stream
		n.inputOrder = append(n.inputOrder, stream)
		n.inputs[stream] = newInputManager(clk, stream, cfg.StallTimeout, inputHooks{
			onFailed: n.onInputFailed,
			onHealed: n.onInputHealed,
			onBroken: func(s, from string) { n.cm.onConnBroken(s, from) },
			forward: func(s string, ts []tuple.Tuple) {
				if !n.down {
					n.eng.Ingest(s, ts)
				}
			},
		})
	}
	sort.Strings(n.inputOrder)
	for _, out := range d.Outputs() {
		stream := out.Stream
		n.outOrder = append(n.outOrder, stream)
		if !cfg.TapOnly {
			n.outputs[stream] = NewOutputBuffer(clk, net, cfg.ID, stream, cfg.BufferMode, cfg.BufferCap, cfg.Downstreams[stream])
		}
	}
	sort.Strings(n.outOrder)
	n.cm = newCM(n, cfg.CM)
	// The engine is idle at construction, so the checkpoint callback
	// fires synchronously: pristine is the diagram's initial state.
	n.eng.RequestCheckpoint(func(s *engine.Snapshot) { n.pristine = s })
	net.Register(cfg.ID, n.handle)
	return n, nil
}

// ID returns the node's endpoint identifier.
func (n *Node) ID() string { return n.cfg.ID }

// State returns the node's current DPC state (Fig. 5).
func (n *Node) State() StreamState { return n.state }

// Engine exposes the node's engine (tests and metrics).
func (n *Node) Engine() *engine.Engine { return n.eng }

// CM exposes the consistency manager (tests and metrics).
func (n *Node) CM() *CM { return n.cm }

// ReconcileDurations returns each completed reconciliation's duration in
// clock µs, grant to REC_DONE, in completion order (report probes).
func (n *Node) ReconcileDurations() []int64 { return n.reconDurations }

// Input returns the manager of an input stream.
func (n *Node) Input(stream string) *InputManager { return n.inputs[stream] }

// Output returns the buffer of an output stream (nil on a TapOnly node).
func (n *Node) Output(stream string) *OutputBuffer { return n.outputs[stream] }

// FailedInputs returns the currently failed input streams, sorted.
func (n *Node) FailedInputs() []string {
	var out []string
	for s := range n.failed {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Start subscribes to upstream replicas and begins keep-alive probing.
func (n *Node) Start() {
	n.cm.start()
	if n.cfg.AckInterval > 0 {
		n.ackTicker = n.clk.NewTicker(n.cfg.AckInterval, n.sendAcks)
	}
}

// Stop halts probing (used by tests and controlled shutdown).
func (n *Node) Stop() {
	n.cm.stop()
	if n.ackTicker != nil {
		n.ackTicker.Stop()
	}
}

// send transmits a message unless the node is crashed.
func (n *Node) send(to string, msg any) {
	if n.down {
		return
	}
	n.net.Send(n.cfg.ID, to, msg)
}

// handle dispatches incoming network messages.
func (n *Node) handle(from string, msg any) {
	if n.down {
		return
	}
	if n.recovering {
		// A recovering node consumes data and keep-alive responses to
		// rebuild its state but answers no requests (§4.5): nobody
		// must mistake it for a live replica yet.
		switch m := msg.(type) {
		case DataMsg:
			if im := n.inputs[m.Stream]; im != nil {
				im.Handle(from, m.Seq, m.Tuples)
			}
			n.maybeFinishRecovery()
		case KeepAliveResp:
			n.cm.onKeepAlive(from, m)
		}
		return
	}
	switch m := msg.(type) {
	case DataMsg:
		if im := n.inputs[m.Stream]; im != nil {
			im.Handle(from, m.Seq, m.Tuples)
		}
	case SubscribeMsg:
		if ob := n.outputs[m.Stream]; ob != nil {
			ob.Subscribe(from, m)
		}
	case UnsubscribeMsg:
		if ob := n.outputs[m.Stream]; ob != nil {
			ob.Unsubscribe(from)
		}
	case AckMsg:
		if ob := n.outputs[m.Stream]; ob != nil {
			ob.Ack(from, m.UpToID)
		}
	case KeepAliveReq:
		n.send(from, KeepAliveResp{Node: n.state, Streams: n.streamStates(), Progress: n.inputProgress()})
	case KeepAliveResp:
		n.cm.onKeepAlive(from, m)
	case ReconcileReq:
		n.cm.onReconcileReq(from)
	case ReconcileResp:
		n.cm.onReconcileResp(from, m)
	case ReconcileDone:
		n.cm.onReconcileDone(from)
	}
}

// inputProgress builds the stabilization-progress token of a KeepAliveResp:
// the last stable tuple id accepted on each input stream. The map is built
// fresh per response — receivers retain it across handler turns.
func (n *Node) inputProgress() map[string]uint64 {
	if len(n.inputOrder) == 0 {
		return nil
	}
	p := make(map[string]uint64, len(n.inputOrder))
	for _, stream := range n.inputOrder {
		p[stream] = n.inputs[stream].LastStableID()
	}
	return p
}

// streamStates computes the advertised state of each output stream. In
// whole-node mode every stream carries the node state; in fine-grained mode
// (§8.2) a stream is UP_FAILURE only if a currently-failed input reaches it,
// computed from the diagram structure before tentative data even propagates.
func (n *Node) streamStates() map[string]StreamState {
	out := make(map[string]StreamState, len(n.outOrder))
	for _, s := range n.outOrder {
		out[s] = n.state
	}
	if !n.cfg.FineGrained || n.state == StateStable {
		return out
	}
	affected := make(map[string]bool)
	for in := range n.failed {
		for _, s := range n.d.OutputsAffectedBy(in) {
			affected[s] = true
		}
	}
	// While reconciling or diverged, previously-affected streams carry
	// the node state; untouched streams stay STABLE.
	for _, s := range n.outOrder {
		if !affected[s] && n.state == StateUpFailure && !n.eng.Diverged() {
			out[s] = StateStable
		}
	}
	return out
}

// OnDeliver registers a local tap on the node's output streams: a client
// application colocated with its proxy node consumes output here.
func (n *Node) OnDeliver(fn func(stream string, t tuple.Tuple)) { n.onDeliver = fn }

// publish routes an engine output tuple into the stream's output buffer.
func (n *Node) publish(stream string, t tuple.Tuple) {
	if n.onDeliver != nil {
		n.onDeliver(stream, t)
	}
	ob := n.outputs[stream]
	if ob == nil {
		return
	}
	if !ob.Publish(t) {
		// BufferBlock back-pressure: stop the inflow entirely; the
		// upstream buffers (and ultimately the sources) absorb it.
		n.pauseInputs()
	}
}

// publishBatch routes a staged-plane output batch into the stream's output
// buffer. The deliver taps run first for the whole batch, then the buffer
// takes it in one call: the tap never touches the buffer and the buffer
// never calls back, so the interleaving is indistinguishable from the
// per-tuple publish path. One pauseInputs covers any number of refused
// tuples — unsubscribe is idempotent per upstream.
func (n *Node) publishBatch(stream string, ts []tuple.Tuple) {
	if n.onDeliver != nil {
		for i := range ts {
			n.onDeliver(stream, ts[i])
		}
	}
	ob := n.outputs[stream]
	if ob == nil {
		return
	}
	if !ob.PublishBatch(ts) {
		n.pauseInputs()
	}
}

// pauseInputs unsubscribes from every upstream: the §8.1 blocking mode.
func (n *Node) pauseInputs() {
	for _, stream := range n.inputOrder {
		if live := n.inputs[stream].Live(); live != "" {
			n.cm.unsubscribe(stream, live)
		}
	}
}

// sendAcks acknowledges the last stable tuple of every input stream to all
// replicas of the upstream neighbor: every replica buffers its output until
// all replicas of all downstream neighbors received it (§8.1), and the
// stable prefix is identical across replicas, so one id acknowledges all.
func (n *Node) sendAcks() {
	for _, stream := range n.inputOrder {
		im := n.inputs[stream]
		if im.LastStableID() == 0 {
			continue
		}
		for _, r := range n.cfg.Upstreams[stream] {
			n.send(r, AckMsg{Stream: stream, UpToID: im.LastStableID()})
		}
	}
}

// onSignal receives SUnion/SOutput control signals from the engine.
func (n *Node) onSignal(s operator.Signal) {
	switch s.Kind {
	case operator.SigUpFailure:
		n.UpFailureSigs++
	case operator.SigRecDone:
		n.onStabilizationComplete()
	}
}

// ---- Fig. 5 state machine ----

// onInputFailed handles a healthy → failed transition of an input stream.
func (n *Node) onInputFailed(stream string, kind FailKind) {
	n.tracef("input-failed", "%s (%v)", stream, kind)
	n.failed[stream] = true
	if kind == FailStall {
		// A stall with a healthy-looking upstream is a broken
		// subscription; let the CM repair it.
		n.cm.onInputStalled(stream)
	}
	switch n.state {
	case StateStable:
		n.setState(StateUpFailure, "input failed: "+stream)
		n.takeCheckpoint()
		n.applyPolicies()
	case StateUpFailure:
		// Another failure during an ongoing one (Fig. 11a): the
		// checkpoint stands; if we were waiting for a reconciliation
		// grant, abandon it and go back to failure handling.
		n.cm.cancelWant()
		if !n.cpRequested {
			// No checkpoint anchors this epoch: the node entered
			// UP_FAILURE through a crash restart, which drops all
			// state, not through a Stable→UpFailure transition. If
			// this incarnation diverges it must be able to roll back
			// to now — without this, a restarted replica that
			// flushed tentative data could never reconcile (its
			// grant arrived, found no snapshot, and retried forever:
			// a permanent zombie the scenario fuzzer caught when a
			// flapped replica restarted into a boundary stall).
			n.takeCheckpoint()
		}
		n.applyPolicies()
	case StateStabilization:
		// Failure during recovery (Fig. 11b): the replay finishes and
		// REC_DONE closes the correction sequence; the completion
		// handler sees the non-empty failure set and re-enters
		// UP_FAILURE with a fresh checkpoint.
	}
}

// onInputHealed handles a failed → healthy transition.
func (n *Node) onInputHealed(stream string) {
	n.tracef("input-healed", "%s (failed remaining %d, diverged %v, holds-tentative %v)",
		stream, len(n.failed)-1, n.eng.Diverged(), n.eng.HoldsTentative())
	delete(n.failed, stream)
	n.cm.consolidate(stream)
	if n.state != StateUpFailure || len(n.failed) > 0 {
		return
	}
	if !n.needsReconcile() {
		// The failure was masked: nothing tentative left the node or
		// remains buffered inside it, so the checkpoint can simply be
		// dropped (§6.1: failures shorter than the suspension are
		// masked entirely). The HoldsTentative part of the predicate
		// matters when an upstream's correction healed this input
		// before our own suspension expired: the SUnions may still
		// hold tentative tuples that only the checkpoint restore +
		// patched-log replay can roll back — dropping the epoch would
		// leave a bucket no policy can ever flush, starving everything
		// downstream.
		n.discardEpoch()
		n.setState(StateStable, "heal masked")
		n.applyPolicies()
		return
	}
	// All failures healed but the state diverged: reconcile, staggered
	// so one replica keeps processing new data (§4.4.3). The failure
	// policy stays in force until the authorization resolves: under
	// PolicyDelay this keeps the delayed backlog buffered, and if the
	// grant arrives within the hold those tuples are rolled back and
	// re-derived stable instead of ever being emitted tentative — the
	// consistency benefit of delaying (§6.1).
	n.cm.requestReconcileAuth()
}

// needsReconcile reports whether a healed node must reconcile rather than
// treat the failure as masked: its state diverged (tentative output left
// the node), or a SUnion still buffers tentative tuples only a checkpoint
// restore + patched-log replay can roll back.
func (n *Node) needsReconcile() bool {
	return n.eng.Diverged() || n.eng.HoldsTentative()
}

// onReconcileRejected marks this node as the replica that stays available
// while its partner reconciles: from here on, new tuples are handled per
// the stabilization-phase policy (§6.1's second policy dimension).
func (n *Node) onReconcileRejected() {
	if n.state != StateUpFailure || len(n.failed) > 0 {
		return
	}
	n.applyPolicies()
}

// onReconcileGranted starts state reconciliation (§4.4.1-4.4.2).
func (n *Node) onReconcileGranted() {
	if n.state != StateUpFailure || len(n.failed) > 0 || !n.needsReconcile() {
		n.cm.finishReconcile() // stale grant; release the peer
		return
	}
	if n.snap == nil {
		// The checkpoint callback is still draining pre-request
		// batches: retry shortly (never synchronously — the self-
		// granted path would recurse).
		n.cm.finishReconcile()
		n.clk.After(10*runtime.Millisecond, func() {
			if n.state == StateUpFailure && len(n.failed) == 0 && n.needsReconcile() {
				n.cm.requestReconcileAuth()
			}
		})
		return
	}
	n.setState(StateStabilization, "reconcile granted")
	n.Reconciliations++
	n.reconStart = n.clk.Now()
	n.eng.Restore(n.snap)
	// The checkpoint may have captured buckets holding tentative tuples
	// whose undo arrived (and was consumed patching the logs) after the
	// cut; the restore would resurrect them with no revocation left to
	// come. Stabilization re-derives from stable data only.
	n.eng.RevokeTentativeAll()
	for _, stream := range n.inputOrder {
		im := n.inputs[stream]
		replay := im.TakeLog()
		im.StopLog()
		n.eng.Ingest(stream, replay)
	}
	n.eng.ScheduleRecDone()
	n.applyPolicies()
}

// onStabilizationComplete fires when REC_DONE crosses the node's outputs.
func (n *Node) onStabilizationComplete() {
	if n.state != StateStabilization {
		return
	}
	n.reconDurations = append(n.reconDurations, n.clk.Now()-n.reconStart)
	n.cm.finishReconcile()
	if len(n.failed) == 0 {
		n.discardEpoch()
		n.setState(StateStable, "stabilization complete")
		n.applyPolicies()
		return
	}
	// A failure struck during recovery (Fig. 11b): back to UP_FAILURE
	// with a fresh checkpoint; the SUnions suspend again.
	n.setState(StateUpFailure, "failure during stabilization")
	n.takeCheckpoint()
	n.applyPolicies()
}

// takeCheckpoint requests a checkpoint and restarts the arrival logs at the
// same instant, so snapshot + logs partition the input exactly (§4.4.1).
func (n *Node) takeCheckpoint() {
	n.tracef("checkpoint", "epoch %d", n.cpWant+1)
	n.Checkpoints++
	n.cpRequested = true
	n.cpWant++
	seq := n.cpWant
	n.snap = nil
	for _, stream := range n.inputOrder {
		n.inputs[stream].StartLog()
	}
	n.eng.RequestCheckpoint(func(s *engine.Snapshot) {
		if n.cpWant == seq {
			n.snap = s
			n.cpSeq = seq
		}
	})
}

// discardEpoch clears the failure-handling state, including a checkpoint
// request the engine has not gotten around to serving yet.
func (n *Node) discardEpoch() {
	n.tracef("discard-epoch", "epoch %d", n.cpWant)
	n.snap = nil
	n.cpRequested = false
	n.cpWant++
	n.eng.CancelCheckpoint()
	for _, stream := range n.inputOrder {
		n.inputs[stream].StopLog()
	}
}

// applyPolicies switches SUnion delay policies to match the node state.
func (n *Node) applyPolicies() {
	if n.recovering {
		// A recovering node rebuilds by re-deriving the stable stream
		// (§4.5); it serves nobody — it answers no requests, so no
		// downstream consumes what it emits — and flushing buckets
		// tentatively mid-rebuild would only diverge the very state it
		// is trying to reconstruct (the fuzzer found recoveries that
		// never converged because an upstream failure mid-rebuild
		// switched the SUnions to a tentative policy). Pure
		// serialization until caught up; the real policy is applied
		// when recovery completes.
		n.eng.SetPolicyAll(operator.PolicyNone)
		return
	}
	var p operator.DelayPolicy
	switch {
	case n.state == StateStable || n.state == StateStabilization:
		p = operator.PolicyNone
	case len(n.failed) > 0:
		p = n.cfg.FailurePolicy
	default:
		// Healed, diverged, waiting for the reconciliation grant.
		p = n.cfg.StabilizationPolicy
	}
	if n.cfg.FineGrained && n.state == StateUpFailure {
		// Scope the failure policy to the SUnions the failed inputs
		// actually reach (§8.2); the rest keep running normally.
		touched := make(map[string]bool)
		for in := range n.failed {
			for _, su := range n.d.SUnionsFedBy(in) {
				touched[su] = true
			}
		}
		for _, name := range n.d.SUnions() {
			su := n.d.Op(name).(*operator.SUnion)
			if touched[name] || (len(n.failed) == 0 && n.eng.Diverged()) {
				su.SetPolicy(p)
			} else if len(n.failed) > 0 && !touched[name] {
				su.SetPolicy(operator.PolicyNone)
			} else {
				su.SetPolicy(p)
			}
		}
		return
	}
	n.eng.SetPolicyAll(p)
}

// ---- crash / restart (§4.5) ----

// Crash fails the node: it stops sending and receiving, and loses all
// volatile state (buffers are lost when a processing node fails, §2.2).
func (n *Node) Crash() {
	n.tracef("crash", "")
	n.down = true
	n.net.SetDown(n.cfg.ID, true)
	n.Stop()
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Recovering reports whether a restarted node is still rebuilding state.
func (n *Node) Recovering() bool { return n.recovering }

// Restart recovers a crashed node (§4.5): it rejoins the network with an
// empty diagram state, resubscribes to its upstream neighbors — which
// replay their buffered streams from the beginning — and reprocesses to
// rebuild a consistent state. Until it has caught up with the present it
// answers no requests, including keep-alives, so no downstream neighbor
// switches to it prematurely. Exact rebuild (identical tuple ids across
// replicas) requires the upstream buffers to still hold the full streams;
// with truncated buffers the node converges only for convergent-capable
// diagrams (§8.1).
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.tracef("restart", "recovering")
	n.down = false
	n.net.SetDown(n.cfg.ID, false)
	n.recovering = true
	n.restartedAt = n.clk.Now()
	n.state = StateUpFailure // not advertised while recovering
	n.failed = make(map[string]bool)
	n.snap = nil
	n.cpRequested = false
	n.cpWant++
	n.eng.ResetToPristine(n.pristine)
	for _, stream := range n.inputOrder {
		n.inputs[stream].Reset()
	}
	for _, stream := range n.outOrder {
		if ob := n.outputs[stream]; ob != nil {
			ob.Reset()
		}
	}
	n.cm.reset()
	n.Start()
	// Void any reconciliation promise a peer holds on behalf of the dead
	// incarnation: the pre-crash stabilization is never completing, and a
	// granter waiting for its ReconcileDone would stay wedged until the
	// grant timeout. The fresh incarnation holds no grants by definition.
	n.cm.finishReconcile()
}

// maybeFinishRecovery checks whether a recovering node has caught up: every
// input stream's boundary watermark has passed the restart time, so the
// rebuilt state covers everything up to the present.
func (n *Node) maybeFinishRecovery() {
	if !n.recovering {
		return
	}
	for _, stream := range n.inputOrder {
		if n.inputs[stream].lastBoundarySTime < n.restartedAt {
			return
		}
	}
	if !n.eng.Idle() {
		// Reprocessing still in progress; check again when it drains.
		return
	}
	n.recovering = false
	n.tracef("recovered", "failed %d, diverged %v, holds-tentative %v",
		len(n.failed), n.eng.Diverged(), n.eng.HoldsTentative())
	if len(n.failed) != 0 {
		// Still in UP_FAILURE; the heal path takes it from here. The
		// failure policy suppressed during the rebuild applies now.
		n.applyPolicies()
		return
	}
	if !n.needsReconcile() {
		n.setState(StateStable, "recovery caught up")
		n.applyPolicies()
		return
	}
	// The rebuild ingested tentative data (an upstream was mid-divergence
	// while this node replayed its buffers) and the inputs have already
	// healed, so no future heal will trigger the rollback. Request it
	// here — declaring STABLE instead would freeze the poisoned buckets
	// forever: recovery checked only Diverged() once, and the fuzzer
	// found the held-tentative variant (a replica restarting while its
	// upstream reconciled a source outage) starving everything downstream
	// of the bucket.
	n.cm.requestReconcileAuth()
}

// HandleMessage delivers a message as if it arrived from the network: test
// instrumentation and in-process harnesses use it to interpose on a node's
// endpoint.
func (n *Node) HandleMessage(from string, msg any) { n.handle(from, msg) }
