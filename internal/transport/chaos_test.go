package transport

import (
	"testing"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
)

// TestTCPLinkBlockLocal checks outbound blocking on a local pair: a blocked
// directed link drops at Send, the reverse direction stays open, and
// clearing the state with the zero LinkState heals the link.
func TestTCPLinkBlockLocal(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var gotY, gotX int
	tr.Register("x", func(string, any) { gotX++ })
	tr.Register("y", func(string, any) { gotY++ })

	tr.SetLink("x", "y", fabric.LinkState{Block: true})
	tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: 1})
	tr.Send("y", "x", node.AckMsg{Stream: "s", UpToID: 1}) // reverse is one-way open
	clk.RunFor(runtime.Millisecond)
	if gotY != 0 {
		t.Fatalf("blocked link delivered %d frames", gotY)
	}
	if gotX != 1 {
		t.Fatalf("reverse direction delivered %d frames, want 1", gotX)
	}
	if d := tr.DroppedLink.Load(); d != 1 {
		t.Fatalf("DroppedLink = %d, want 1", d)
	}

	tr.SetLink("x", "y", fabric.LinkState{}) // heal
	tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: 2})
	clk.RunFor(runtime.Millisecond)
	if gotY != 1 {
		t.Fatalf("healed link delivered %d frames, want 1", gotY)
	}
}

// TestTCPLinkBlockInbound checks receiver-side blocking over a real socket:
// frames arriving on a blocked link are dropped off the wire (counted on the
// receiving fabric), and delivery resumes on heal.
func TestTCPLinkBlockInbound(t *testing.T) {
	clkA, clkB := runtime.NewWall(1000), runtime.NewWall(1000)
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
	tA.Register("a", func(string, any) {})
	var got int
	tB.Register("b", func(string, any) { got++ })

	tB.SetLink("a", "b", fabric.LinkState{Block: true})
	tA.Send("a", "b", node.AckMsg{Stream: "s", UpToID: 1})
	// The drop happens on tB's socket reader, not through the clock.
	deadline := time.Now().Add(10 * time.Second)
	for tB.DroppedLink.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never dropped the blocked frame")
		}
		clkB.RunFor(runtime.Millisecond)
	}
	if got != 0 {
		t.Fatalf("blocked inbound link delivered %d frames", got)
	}

	tB.SetLink("a", "b", fabric.LinkState{})
	tA.Send("a", "b", node.AckMsg{Stream: "s", UpToID: 2})
	driveUntil(t, clkB, 10*time.Second, func() bool { return got == 1 })
}

// TestTCPLinkDeliveryTimeBlock checks netsim parity: a frame already in
// flight (scheduled through the clock) dies if the partition lands before
// its delivery time.
func TestTCPLinkDeliveryTimeBlock(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got int
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(string, any) { got++ })

	// Give the frame 50ms of flight time, then block mid-flight.
	tr.SetLink("x", "y", fabric.LinkState{DelayUS: int64(50 * runtime.Millisecond)})
	tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: 1})
	tr.SetLink("x", "y", fabric.LinkState{Block: true})
	clk.RunFor(100 * runtime.Millisecond)
	if got != 0 {
		t.Fatal("in-flight frame survived a partition that landed before delivery")
	}
	if d := tr.DroppedLink.Load(); d != 1 {
		t.Fatalf("DroppedLink = %d, want 1", d)
	}
}

// TestTCPLinkDelay checks that an injected delay stretches delivery by at
// least DelayUS of virtual time.
func TestTCPLinkDelay(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const delay = int64(30 * runtime.Millisecond)
	var deliveredAt int64 = -1
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(string, any) { deliveredAt = clk.Now() })

	tr.SetLink("x", "y", fabric.LinkState{DelayUS: delay})
	sentAt := clk.Now()
	tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: 1})
	clk.RunFor(100 * runtime.Millisecond)
	if deliveredAt < 0 {
		t.Fatal("delayed frame never delivered")
	}
	if lat := deliveredAt - sentAt; lat < delay {
		t.Fatalf("delivered after %dus, want >= %dus", lat, delay)
	}
}

// TestTCPLinkOverlappingBlocks: two partitions of one link whose windows
// overlap arrive as block, block, unblock, unblock. The first unblock must
// not reopen the link while the second fault still holds it.
func TestTCPLinkOverlappingBlocks(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got int
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(string, any) { got++ })
	send := func() int {
		tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: 1})
		clk.RunFor(runtime.Millisecond)
		return got
	}

	tr.SetLink("x", "y", fabric.LinkState{Block: true})
	tr.SetLink("x", "y", fabric.LinkState{Block: true})
	tr.SetLink("x", "y", fabric.LinkState{})
	if send() != 0 {
		t.Fatal("first unblock reopened a link a second block still holds")
	}
	tr.SetLink("x", "y", fabric.LinkState{})
	if send() != 1 {
		t.Fatal("link still blocked after every block was released")
	}
}

// TestLinkDelayDrawsMatchNetsim is the cross-fabric half of the link-table
// contract: the same (from, to, LinkState) yields the same per-message
// delay draws through netsim and through the TCP fabric. Both deliver
// through their clock at send time + draw (netsim with zero base latency),
// and Now is event-anchored on both clocks, so each message's delivery
// time is its draw. The jittered messages must also actually reorder:
// jitter bypasses the FIFO clamp, reordering is the fault being injected.
func TestLinkDelayDrawsMatchNetsim(t *testing.T) {
	const n = 50
	st := fabric.LinkState{DelayUS: 3 * runtime.Millisecond, JitterUS: 20 * runtime.Millisecond}

	var simAt, tcpAt [n]int64
	var simOrder []uint64

	vc := runtime.NewVirtual()
	net := netsim.New(vc)
	net.SetDefaultLatency(0)
	net.Register("x", func(string, any) {})
	net.Register("y", func(_ string, msg any) {
		id := msg.(node.AckMsg).UpToID
		simAt[id] = vc.Now()
		simOrder = append(simOrder, id)
	})
	net.SetLink("x", "y", st)

	wc := runtime.NewWall(1000)
	tr, err := Listen(wc, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	delivered := 0
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(_ string, msg any) {
		tcpAt[msg.(node.AckMsg).UpToID] = wc.Now()
		delivered++
	})
	tr.SetLink("x", "y", st)

	for i := uint64(0); i < n; i++ {
		net.Send("x", "y", node.AckMsg{Stream: "s", UpToID: i})
		tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: i})
	}
	vc.Run()
	wc.RunFor(100 * runtime.Millisecond)

	if len(simOrder) != n || delivered != n {
		t.Fatalf("delivered %d (netsim) / %d (tcp) of %d jittered messages", len(simOrder), delivered, n)
	}
	if simAt != tcpAt {
		t.Fatalf("delay draws diverge between fabrics:\nnetsim %v\ntcp    %v", simAt, tcpAt)
	}
	inOrder := true
	for i, id := range simOrder {
		if at := simAt[id]; at < st.DelayUS || at >= st.DelayUS+st.JitterUS {
			t.Fatalf("message %d drew delay %d outside [%d, %d)", id, at, st.DelayUS, st.DelayUS+st.JitterUS)
		}
		if id != uint64(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("jittered link delivered strictly FIFO: no reordering injected")
	}
}

// TestTCPCtlFlowBackpressure checks the flow-control guarantee on a live
// peer: with a control window of 1, a burst of control frames degrades to
// slow (stalls counted) but every frame arrives — none are shed.
func TestTCPCtlFlowBackpressure(t *testing.T) {
	clkA, clkB := runtime.NewWall(1000), runtime.NewWall(1000)
	tB, err := Listen(clkB, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tB.Close()
	tA, err := Listen(clkA, Config{
		ListenAddr: "127.0.0.1:0",
		Routes:     map[string]string{"b": tB.Addr()},
		CtlWindow:  1,
		CtlBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tA.Close()
	tA.Register("a", func(string, any) {})
	var got int
	tB.Register("b", func(string, any) { got++ })

	const n = 50
	for i := 0; i < n; i++ {
		tA.Send("a", "b", node.KeepAliveReq{})
	}
	driveUntil(t, clkB, 20*time.Second, func() bool { return got == n })
	if d := tA.DroppedCtl.Load(); d != 0 {
		t.Fatalf("live peer shed %d control frames", d)
	}
	if d := tA.Dropped.Load(); d != 0 {
		t.Fatalf("live peer dropped %d frames", d)
	}
	if tA.CtlStalls.Load() == 0 {
		t.Fatal("window of 1 never stalled a 50-frame control burst")
	}
}

// TestTCPCtlTimeoutDrop checks the liveness escape hatch: a control send
// stalled on a dead peer past CtlTimeout drops the frame and counts it,
// instead of freezing the sender forever.
func TestTCPCtlTimeoutDrop(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{
		ListenAddr:  "127.0.0.1:0",
		Routes:      map[string]string{"gone": "127.0.0.1:1"},
		QueueLen:    2,
		DialBackoff: time.Hour,
		CtlTimeout:  50 * time.Millisecond,
		CtlBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Register("x", func(string, any) {})
	deadline := time.Now().Add(10 * time.Second)
	for tr.DroppedCtl.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled control send never timed out")
		}
		tr.Send("x", "gone", node.KeepAliveReq{})
	}
	if tr.CtlStalls.Load() == 0 {
		t.Fatal("timed-out control send was never counted as stalled")
	}
	if tr.DroppedQueue.Load() != 0 {
		t.Fatal("control frames were shed by the queue instead of flow control")
	}
}
