package transport

import (
	"testing"
	"time"

	"borealis/internal/diagram"
	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// driveBoth drives two wall clocks in small interleaved increments from the
// calling goroutine until cond holds or the real-time deadline passes.
// Between increments no callback runs, so cond may safely read state the
// clocks' callbacks write.
func driveBoth(t *testing.T, a, b *runtime.WallClock, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		a.RunFor(10 * runtime.Millisecond)
		b.RunFor(10 * runtime.Millisecond)
	}
}

func grantDiagram(t *testing.T) *diagram.Diagram {
	t.Helper()
	b := diagram.NewBuilder()
	b.Add(operator.NewSUnion("su", operator.SUnionConfig{
		Ports: 1, BucketSize: 100 * runtime.Millisecond, Delay: runtime.Second,
	}))
	b.Add(operator.NewSOutput("so"))
	b.Connect("su", "so", 0)
	b.Input("in", "su", 0)
	b.Output("out.a", "so")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTCPGrantRevokedWhenDataPathBlocked runs the tentpole end to end over
// real sockets, on two fabrics with independent wall clocks: replica "a"
// (a real Node) grants a reconciliation promise to scripted peer "b" on
// the other worker. While b's data feed flows, its progress token advances
// and the grant survives well past the stall window. Then a link-level
// block cuts only the src→b data path — the a↔b keep-alive path stays up,
// so liveness probing alone would hold the grant for the full 120s
// GrantTimeout. The progress probe must instead revoke within the stall
// window, with cause "stalled" (not "silent": b answered every probe), and
// a fresh request afterwards must be granted again. The -race run enforces
// that all of this stays on the clocks' driving goroutine.
func TestTCPGrantRevokedWhenDataPathBlocked(t *testing.T) {
	const speed = 10
	clkA, clkB := runtime.NewWall(speed), runtime.NewWall(speed)
	tB, err := Listen(clkB, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tB.Close()
	tA, err := Listen(clkA, Config{ListenAddr: "127.0.0.1:0", Routes: map[string]string{"b": tB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer tA.Close()
	tB.AddRoute("a", tA.Addr())

	tA.Register("up", func(string, any) {})
	tA.Register("src", func(string, any) {})
	a, err := node.New(clkA, tA, grantDiagram(t), node.Config{
		ID:        "a",
		Peers:     []string{"b"},
		Upstreams: map[string][]string{"in": {"up"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scripted peer b: its stabilization-progress token is the id of the
	// last tuple its real data feed delivered. All fields live on the
	// clocks' single driving goroutine (this test goroutine).
	var lastID uint64
	var grants, rejects int
	tB.Register("b", func(from string, msg any) {
		switch m := msg.(type) {
		case node.DataMsg:
			if n := len(m.Tuples); n > 0 {
				lastID = m.Tuples[n-1].ID
			}
		case node.KeepAliveReq:
			tB.Send("b", from, node.KeepAliveResp{
				Node:     node.StateStabilization,
				Progress: map[string]uint64{"in": lastID},
			})
		case node.ReconcileResp:
			if m.Granted {
				grants++
			} else {
				rejects++
			}
		}
	})

	// b's data feed: fresh tuples from src every 50ms, across the socket.
	var seq, id uint64
	feeder := clkA.NewTicker(50*runtime.Millisecond, func() {
		seq++
		id++
		tA.Send("src", "b", node.DataMsg{Stream: "in", Seq: seq, Tuples: []tuple.Tuple{
			{Type: tuple.Insertion, ID: id, STime: int64(id)},
		}})
	})
	defer feeder.Stop()

	a.Start()
	tB.Send("b", "a", node.ReconcileReq{})
	driveBoth(t, clkA, clkB, 20*time.Second, func() bool { return grants == 1 })

	// Two stall windows with the data path open: the advancing token must
	// keep the grant alive.
	window := node.DefaultGrantStallWindow(0, 0)
	hold := clkA.Now() + 2*window
	driveBoth(t, clkA, clkB, 20*time.Second, func() bool { return clkA.Now() >= hold })
	if n := a.CM().GrantRevokedStalled + a.CM().GrantRevokedDone + a.CM().GrantRevokedSilent; n != 0 {
		t.Fatalf("grant revoked (%d times) while the peer's token was advancing", n)
	}

	// Cut only the data path. Keep-alives between a and b keep flowing.
	tA.SetLink("src", "b", fabric.LinkState{Block: true})
	blockedAt := clkA.Now()
	driveBoth(t, clkA, clkB, 20*time.Second, func() bool { return a.CM().GrantRevokedStalled == 1 })
	elapsed := clkA.Now() - blockedAt
	if elapsed > 2*window {
		t.Fatalf("revocation took %dµs, want within 2× the %dµs stall window", elapsed, window)
	}
	if a.CM().GrantRevokedSilent != 0 {
		t.Fatal("revocation cause was silence — the keep-alive path must have stayed up")
	}
	if a.CM().GrantTimeouts != 0 {
		t.Fatal("the 120s GrantTimeout backstop fired; the progress probe did not")
	}

	// Revocation is not a ban: b re-requests and is granted again.
	tB.Send("b", "a", node.ReconcileReq{})
	driveBoth(t, clkA, clkB, 20*time.Second, func() bool { return grants == 2 })
}
