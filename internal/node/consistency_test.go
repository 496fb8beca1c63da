package node

import (
	"maps"
	"reflect"
	"testing"

	"borealis/internal/diagram"
	"borealis/internal/netsim"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// passDiagram builds the minimal DPC diagram: in → SUnion → SOutput → out.
func passDiagram(t *testing.T, in, out string) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{
		Ports: 1, BucketSize: 100 * ms, Delay: 1 * sec,
	}))
	b.Add(operator.NewSOutput("so"))
	b.Connect("su", "so", 0)
	b.Input(in, "su", 0)
	b.Output(out, "so")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mkNode(t *testing.T, sim *runtime.VirtualClock, net *netsim.Net, id string, peers []string) *Node {
	t.Helper()
	n, err := New(sim, net, passDiagram(t, "in", "out."+id), Config{
		ID:        id,
		Peers:     peers,
		Upstreams: map[string][]string{"in": {"up"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStaggerProtocolPairTieBreak(t *testing.T) {
	// Two replicas want to reconcile simultaneously: exactly one gets a
	// grant; the other is rejected by the tie-break (lower id rejects
	// the higher id's request when it wants to reconcile itself...
	// i.e. the higher id grants, the lower id reconciles first).
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	b := mkNode(t, sim, net, "b", []string{"a"})

	grants := map[string]int64{}
	a.cm.wantReconcile = true
	b.cm.wantReconcile = true
	// Intercept grant handling: record the time each node is granted.
	origA := a.cm
	_ = origA
	sim.After(0, func() {
		a.cm.tryRequest()
		b.cm.tryRequest()
	})
	// Run and observe via node callbacks: onReconcileGranted is a no-op
	// transition here (nodes are stable), so watch wantReconcile flags.
	sim.RunFor(1 * sec)
	_ = grants
	// Both must eventually have been granted (wantReconcile cleared).
	if a.cm.wantReconcile && b.cm.wantReconcile {
		t.Fatal("neither replica ever got a grant")
	}
}

func TestReconcileReqRejectedDuringStabilization(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	var resp *ReconcileResp
	net.Register("b", func(_ string, msg any) {
		if r, ok := msg.(ReconcileResp); ok {
			resp = &r
		}
	})
	a.state = StateStabilization
	net.Send("b", "a", ReconcileReq{})
	sim.Run()
	if resp == nil || resp.Granted {
		t.Fatalf("stabilizing node must reject: %+v", resp)
	}
}

func TestReconcileReqTieBreakByID(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	var resp *ReconcileResp
	net.Register("b", func(_ string, msg any) {
		if r, ok := msg.(ReconcileResp); ok {
			resp = &r
		}
	})
	// "a" wants to reconcile and has the lower id: it rejects "b".
	a.cm.wantReconcile = true
	net.Send("b", "a", ReconcileReq{})
	sim.Run()
	if resp == nil || resp.Granted {
		t.Fatalf("lower-id node wanting reconcile must reject: %+v", resp)
	}
	// But it grants once it no longer wants to reconcile.
	a.cm.wantReconcile = false
	resp = nil
	net.Send("b", "a", ReconcileReq{})
	sim.Run()
	if resp == nil || !resp.Granted {
		t.Fatalf("idle node must grant: %+v", resp)
	}
}

func TestGrantReleasedByReconcileDone(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	net.Register("b", func(string, any) {})
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(1 * sec) // short of the grant timeout
	if a.cm.grantedTo != "b" {
		t.Fatalf("grantedTo = %q", a.cm.grantedTo)
	}
	net.Send("b", "a", ReconcileDone{})
	sim.RunFor(1 * sec)
	if a.cm.grantedTo != "" {
		t.Fatal("ReconcileDone must release the promise")
	}
}

func TestKeepAliveTimeoutMarksReplicaFailed(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	n := mkNode(t, sim, net, "a", nil)
	n.Start()
	sim.RunFor(1 * sec)
	// "up" never answers keep-alives (it is a plain sink): the CM must
	// mark it FAILURE after the timeout.
	if got := n.cm.State("in", "up"); got != StateFailure {
		t.Fatalf("silent upstream state = %v, want FAILURE", got)
	}
}

func TestKeepAliveResponseTracksAdvertisedState(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	// An upstream that advertises UP_FAILURE.
	net.Register("up", func(from string, msg any) {
		if _, ok := msg.(KeepAliveReq); ok {
			net.Send("up", from, KeepAliveResp{
				Node:    StateUpFailure,
				Streams: map[string]StreamState{"in": StateUpFailure},
			})
		}
	})
	n := mkNode(t, sim, net, "a", nil)
	n.Start()
	sim.RunFor(500 * ms)
	if got := n.cm.State("in", "up"); got != StateUpFailure {
		t.Fatalf("advertised state not tracked: %v", got)
	}
}

// TestKeepAliveProgressNeverChangesUnderItsReceiver pins that a keep-alive
// response's progress token is never written once sent: a receiver keeps
// it across handler turns. While the last stable id stays put every
// response carries the same map; a moved id builds a new one.
func TestKeepAliveProgressNeverChangesUnderItsReceiver(t *testing.T) {
	h := newSegHarness(t)
	var got, copies []map[string]uint64
	h.net.Register("probe", func(_ string, msg any) {
		if r, ok := msg.(KeepAliveResp); ok {
			got = append(got, r.Progress)
			copies = append(copies, maps.Clone(r.Progress))
		}
	})
	ask := func() {
		h.n.HandleMessage("probe", KeepAliveReq{})
		h.sim.RunFor(50 * ms)
	}
	h.stable(150)
	ask()
	ask()
	h.stable(100)
	ask()
	h.stable(100)
	ask()
	if len(got) != 4 {
		t.Fatalf("%d keep-alive responses, want 4", len(got))
	}
	for i := range got {
		if !maps.Equal(got[i], copies[i]) {
			t.Fatalf("response %d's progress changed after sending: %v, sent %v", i, got[i], copies[i])
		}
	}
	same := func(i, j int) bool { return reflect.ValueOf(got[i]).Pointer() == reflect.ValueOf(got[j]).Pointer() }
	if !same(0, 1) || same(1, 2) || same(2, 3) {
		t.Fatal("want one map while the id stays put and a new one each time it moves")
	}
	if got[3]["in"] != h.id {
		t.Fatalf("progress %v, want in: %d", got[3], h.id)
	}
}

func TestNodeAdvertisesPerStreamStatesWhenFineGrained(t *testing.T) {
	// Two disjoint paths; a failure on in1 must leave out2 STABLE.
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up1", func(string, any) {})
	net.Register("up2", func(string, any) {})
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su1", operator.SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: sec}))
	b.Add(operator.NewSUnion("su2", operator.SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: sec}))
	b.Add(operator.NewSOutput("so1"))
	b.Add(operator.NewSOutput("so2"))
	b.Connect("su1", "so1", 0)
	b.Connect("su2", "so2", 0)
	b.Input("in1", "su1", 0)
	b.Input("in2", "su2", 0)
	b.Output("out1", "so1")
	b.Output("out2", "so2")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(sim, net, d, Config{
		ID:          "n",
		FineGrained: true,
		Upstreams:   map[string][]string{"in1": {"up1"}, "in2": {"up2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.onInputFailed("in1", FailStall)
	states := n.streamStates()
	if states["out1"] != StateUpFailure {
		t.Fatalf("out1 = %v, want UP_FAILURE", states["out1"])
	}
	if states["out2"] != StateStable {
		t.Fatalf("out2 = %v, want STABLE (fine-grained §8.2)", states["out2"])
	}
	// Fine-grained policies: only su1 switches policy.
	if got := d.Op("su1").(*operator.SUnion).Policy(); got == operator.PolicyNone {
		t.Fatal("su1 must be in a failure policy")
	}
	if got := d.Op("su2").(*operator.SUnion).Policy(); got != operator.PolicyNone {
		t.Fatalf("su2 must stay in PolicyNone, got %v", got)
	}
}

func TestNodeChecksAndCountsFailedInputs(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	n := mkNode(t, sim, net, "a", nil)
	n.onInputFailed("in", FailStall)
	if n.State() != StateUpFailure {
		t.Fatalf("state = %v", n.State())
	}
	got := n.FailedInputs()
	if len(got) != 1 || got[0] != "in" {
		t.Fatalf("FailedInputs = %v", got)
	}
	if n.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d", n.Checkpoints)
	}
	// Heal without divergence: masked, straight back to stable.
	n.onInputHealed("in")
	if n.State() != StateStable {
		t.Fatalf("masked heal: state = %v", n.State())
	}
	if n.Reconciliations != 0 {
		t.Fatal("masked failure must not reconcile")
	}
}

func TestCrashedNodeIsSilent(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	n := mkNode(t, sim, net, "a", nil)
	var responded bool
	net.Register("probe", func(string, any) { responded = true })
	n.Crash()
	if !n.Down() {
		t.Fatal("Down() = false after crash")
	}
	net.Send("probe", "a", KeepAliveReq{})
	sim.Run()
	if responded {
		t.Fatal("crashed node must not respond")
	}
}

// scriptPeer registers a scripted replica peer on the netsim: it answers
// every keep-alive probe with the KeepAliveResp built by resp, and counts
// the ReconcileResp grants and rejects it receives.
func scriptPeer(net *netsim.Net, id string, resp func() KeepAliveResp, grants, rejects *int) {
	net.Register(id, func(from string, msg any) {
		switch m := msg.(type) {
		case KeepAliveReq:
			net.Send(id, from, resp())
		case ReconcileResp:
			if m.Granted {
				*grants++
			} else {
				*rejects++
			}
		}
	})
}

// TestGrantRevokedWhenGrantedPeerStalls is the node-level pin of the
// tentpole: a granted peer that answers every keep-alive but whose
// stabilization-progress token never advances (its data path is blocked)
// must lose the grant within the stall window — not the 120s GrantTimeout
// — and a fresh request afterwards must be granted again.
func TestGrantRevokedWhenGrantedPeerStalls(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	var grants, rejects int
	scriptPeer(net, "b", func() KeepAliveResp {
		return KeepAliveResp{Node: StateUpFailure, Progress: map[string]uint64{"in": 5}}
	}, &grants, &rejects)
	a.Start()
	net.Send("b", "a", ReconcileReq{})
	// One stall window (1s by default) plus a few probe periods must
	// suffice: revocation within 2s bounds the starvation far below the
	// 120s backstop.
	sim.RunFor(2 * sec)
	if grants != 1 {
		t.Fatalf("grants = %d, want 1", grants)
	}
	if a.cm.GrantRevokedStalled != 1 || a.cm.grantedTo != "" {
		t.Fatalf("stalled peer must lose the grant within the stall window: stalled=%d grantedTo=%q",
			a.cm.GrantRevokedStalled, a.cm.grantedTo)
	}
	if a.cm.GrantTimeouts != 0 || a.cm.GrantRevokedSilent != 0 || a.cm.GrantRevokedDone != 0 {
		t.Fatalf("wrong revocation cause: %+v", a.cm)
	}
	// Revocation is not a ban: the peer re-requests and is granted again.
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(500 * ms)
	if grants != 2 || a.cm.grantedTo != "b" {
		t.Fatalf("re-request after revocation must be granted: grants=%d grantedTo=%q", grants, a.cm.grantedTo)
	}
}

// TestGrantRevokedWhenReconcileDoneLost covers the third probe: a peer
// that finished stabilizing but whose ReconcileDone was eaten by a
// partition keeps reporting STABLE — and keeps making data progress, so
// the stall probe never fires. Observing STABLE for a whole stall window
// revokes the promise.
func TestGrantRevokedWhenReconcileDoneLost(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	var grants, rejects int
	var id uint64
	scriptPeer(net, "b", func() KeepAliveResp {
		id++ // data progress continues after stabilization finished
		return KeepAliveResp{Node: StateStable, Progress: map[string]uint64{"in": id}}
	}, &grants, &rejects)
	a.Start()
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(2 * sec)
	if a.cm.GrantRevokedDone != 1 || a.cm.grantedTo != "" {
		t.Fatalf("STABLE-without-done peer must lose the grant: done=%d grantedTo=%q",
			a.cm.GrantRevokedDone, a.cm.grantedTo)
	}
	if a.cm.GrantRevokedStalled != 0 || a.cm.GrantTimeouts != 0 {
		t.Fatalf("wrong revocation cause: stalled=%d timeouts=%d", a.cm.GrantRevokedStalled, a.cm.GrantTimeouts)
	}
}

// TestGrantHeldWhileStabilizationProgresses is the negative control: a
// granted peer advancing its progress token in STABILIZATION keeps the
// promise well past the stall window, and only its ReconcileDone releases
// it.
func TestGrantHeldWhileStabilizationProgresses(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	a := mkNode(t, sim, net, "a", []string{"b"})
	var grants, rejects int
	var id uint64
	scriptPeer(net, "b", func() KeepAliveResp {
		id++
		return KeepAliveResp{Node: StateStabilization, Progress: map[string]uint64{"in": id}}
	}, &grants, &rejects)
	a.Start()
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(3 * sec) // three stall windows
	if a.cm.grantedTo != "b" {
		t.Fatalf("progressing peer must keep the grant, grantedTo=%q", a.cm.grantedTo)
	}
	if n := a.cm.GrantRevokedStalled + a.cm.GrantRevokedDone + a.cm.GrantRevokedSilent + a.cm.GrantTimeouts; n != 0 {
		t.Fatalf("progressing peer must not be revoked (%d revocations)", n)
	}
	net.Send("b", "a", ReconcileDone{})
	sim.RunFor(sec)
	if a.cm.grantedTo != "" {
		t.Fatal("ReconcileDone must release the promise")
	}
}

// stickyClock wraps a Clock so Timer.Stop never cancels: it models the
// WallClock race where a stopped timer's callback is already in flight and
// fires anyway (virtual time makes the race deterministic).
type stickyClock struct{ runtime.Clock }

type stickyTimer struct{ runtime.Timer }

func (stickyTimer) Stop() bool { return false }

func (c stickyClock) After(d int64, fn func()) runtime.Timer {
	return stickyTimer{c.Clock.After(d, fn)}
}

// TestGrantTimeoutIgnoresStaleTimer is the regression test for the
// grant-timer identity bug: a grant is released by ReconcileDone and
// re-granted to the same peer, but the first grant's GrantTimeout callback
// — whose Stop raced its firing — still runs. It must recognize it is
// stale (timer identity, not just grantedTo, which matches) and leave the
// fresh grant and its timer alone.
func TestGrantTimeoutIgnoresStaleTimer(t *testing.T) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	net.Register("up", func(string, any) {})
	n, err := New(stickyClock{sim}, net, passDiagram(t, "in", "out.a"), Config{
		ID:        "a",
		Peers:     []string{"b"},
		Upstreams: map[string][]string{"in": {"up"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Register("b", func(string, any) {})
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(1 * sec) // granted; stale timer armed for t≈120s
	if n.cm.grantedTo != "b" {
		t.Fatalf("grantedTo = %q", n.cm.grantedTo)
	}
	net.Send("b", "a", ReconcileDone{})
	sim.RunFor(1 * sec) // released; the sticky Stop leaves the timer live
	net.Send("b", "a", ReconcileReq{})
	sim.RunFor(1 * sec) // re-granted; fresh timer armed for t≈122s
	if n.cm.grantedTo != "b" {
		t.Fatalf("re-grant failed, grantedTo = %q", n.cm.grantedTo)
	}
	sim.RunFor(119 * sec) // past the stale timer's deadline
	if n.cm.grantedTo != "b" || n.cm.GrantTimeouts != 0 {
		t.Fatalf("stale GrantTimeout callback clobbered the fresh grant: grantedTo=%q timeouts=%d",
			n.cm.grantedTo, n.cm.GrantTimeouts)
	}
	sim.RunFor(3 * sec) // past the fresh timer's deadline: it must still work
	if n.cm.grantedTo != "" || n.cm.GrantTimeouts != 1 {
		t.Fatalf("fresh GrantTimeout must fire: grantedTo=%q timeouts=%d", n.cm.grantedTo, n.cm.GrantTimeouts)
	}
}

func TestUnionTypesCompile(t *testing.T) {
	// Compile-time sanity for message types used across packages.
	var _ any = DataMsg{Stream: "s", Tuples: []tuple.Tuple{}}
	var _ any = SubscribeMsg{}
	var _ any = AckMsg{}
}
