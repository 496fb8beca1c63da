package client

import (
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

func auditClient(t *testing.T) (*runtime.VirtualClock, *fakeUpstream, *Client) {
	t.Helper()
	return setup(t)
}

func TestVerifyRecentWindow(t *testing.T) {
	sim, up, c := auditClient(t)
	now := sim.Now()
	for i := int64(1); i <= 10; i++ {
		up.push(stable(uint64(i), now+i, i))
	}
	up.push(tuple.NewBoundary(now + 100*ms))
	sim.RunFor(1 * sec)
	// Reference shares only the tail (as if older corrections were
	// sacrificed to a bounded buffer).
	var ref []tuple.Tuple
	for i := int64(6); i <= 10; i++ {
		ref = append(ref, tuple.Tuple{Type: tuple.Insertion, STime: now + i}.WithData(i))
	}
	if audit := c.VerifyRecentWindow(ref, 5); !audit.OK {
		t.Fatalf("recent window should match: %s", audit.Reason)
	}
	// A diverging tail must be caught.
	ref[4].SetData(nil, 99)
	if audit := c.VerifyRecentWindow(ref, 5); audit.OK {
		t.Fatal("diverging recent window accepted")
	}
	// Too little data to compare is a failure, not a silent pass.
	if audit := c.VerifyRecentWindow(ref, 50); audit.OK {
		t.Fatal("short stream must not pass a 50-tuple window check")
	}
}

func TestAuditShorterReferencePrefixOnly(t *testing.T) {
	sim, up, c := auditClient(t)
	now := sim.Now()
	up.push(stable(1, now, 1), stable(2, now+1, 2), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	// Reference has only the first tuple: the comparison covers the
	// shared prefix and reports how much it compared.
	audit := c.VerifyEventualConsistency([]tuple.Tuple{
		tuple.Tuple{Type: tuple.Insertion, STime: now}.WithData(1),
	})
	if !audit.OK || audit.Compared != 1 {
		t.Fatalf("prefix audit wrong: %+v", audit)
	}
}

func TestClientMinMeanStdevLatency(t *testing.T) {
	sim, up, c := auditClient(t)
	sim.RunFor(1 * sec) // keep past-stamped stimes positive
	base := sim.Now()
	// Two tuples with different latencies: stamped in the past.
	up.push(
		tuple.Tuple{Type: tuple.Insertion, ID: 1, STime: base - 50*ms}.WithData(1),
		tuple.Tuple{Type: tuple.Insertion, ID: 2, STime: base - 10*ms}.WithData(2),
		tuple.NewBoundary(base+200*ms),
	)
	sim.RunFor(1 * sec)
	st := c.Stats()
	if st.NewTuples != 2 {
		t.Fatalf("NewTuples = %d", st.NewTuples)
	}
	if st.MinLatency >= st.MaxLatency {
		t.Fatalf("min %d should be below max %d", st.MinLatency, st.MaxLatency)
	}
	if st.MeanLatency <= float64(st.MinLatency) || st.MeanLatency >= float64(st.MaxLatency) {
		t.Fatalf("mean %f outside [min,max]", st.MeanLatency)
	}
	if st.StdevLatency <= 0 {
		t.Fatal("stdev should be positive for distinct latencies")
	}
}

func TestClientProxyReconcilesOwnState(t *testing.T) {
	// The proxy is a real DPC node: after receiving tentative data and
	// then corrections + REC_DONE, it reconciles (restores + replays)
	// and forwards its own corrected stream to the app.
	sim, up, c := auditClient(t)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	up.push(tuple.Tuple{Type: tuple.Tentative, ID: 2, STime: sim.Now()}.WithData(2))
	sim.RunFor(1 * sec)
	if c.Proxy().State() != node.StateUpFailure {
		t.Fatalf("proxy state = %v, want UP_FAILURE", c.Proxy().State())
	}
	n2 := sim.Now()
	up.push(tuple.NewUndo(1), stable(3, n2, 2), tuple.NewRecDone(0), tuple.NewBoundary(n2+100*ms))
	// Keep the heartbeat flowing after the corrections, as a live
	// upstream would; a silent stream would legitimately re-fail.
	for i := int64(1); i <= 20; i++ {
		at := n2 + i*100*ms
		sim.At(at, func() { up.push(tuple.NewBoundary(at + 100*ms)) })
	}
	sim.RunFor(2 * sec)
	if c.Proxy().State() != node.StateStable {
		t.Fatalf("proxy state = %v, want STABLE after corrections", c.Proxy().State())
	}
	if c.Proxy().Reconciliations != 1 {
		t.Fatalf("proxy reconciliations = %d", c.Proxy().Reconciliations)
	}
}

func TestClientHandlesUpstreamVanishing(t *testing.T) {
	// The only upstream crashes: the client stalls but must not corrupt
	// its view; the stream resumes when the upstream returns.
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	up := newFakeUpstream(sim, net, "n1")
	c, err := New(sim, net, Config{
		ID: "client", Stream: "out", Upstreams: []string{"n1"},
		Delay: 50 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sim.RunFor(50 * ms)
	now := sim.Now()
	up.push(stable(1, now, 1), tuple.NewBoundary(now+100*ms))
	sim.RunFor(500 * ms)
	net.SetDown("n1", true)
	sim.RunFor(2 * sec)
	net.SetDown("n1", false)
	sim.RunFor(2 * sec)
	n2 := sim.Now()
	up.push(stable(2, n2, 2), tuple.NewBoundary(n2+100*ms))
	sim.RunFor(1 * sec)
	view := c.StableView()
	if len(view) != 2 {
		t.Fatalf("view after upstream crash/restore: %v", view)
	}
}
