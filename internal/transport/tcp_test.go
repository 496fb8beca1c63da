package transport

import (
	"encoding/binary"
	"io"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"borealis/internal/client"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/source"
	"borealis/internal/tuple"
)

// driveUntil drives the clock in small increments on the calling goroutine
// until cond holds (checked between increments, so it may safely read state
// the clock's callbacks write) or the real-time deadline passes.
func driveUntil(t *testing.T, clk *runtime.WallClock, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		clk.RunFor(10 * runtime.Millisecond)
	}
}

// TestTCPDelivery sends a stream of frames between two fabrics and checks
// content, per-link FIFO order, and that handlers only ever ran on the
// receiving clock's driving goroutine (the -race run enforces that: the
// counters below are unsynchronized).
func TestTCPDelivery(t *testing.T) {
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

	var got []node.DataMsg
	var froms []string
	tB.Register("b", func(from string, msg any) {
		froms = append(froms, from)
		got = append(got, msg.(node.DataMsg))
	})
	tA.Register("a", func(string, any) {})

	const n = 200
	for i := 0; i < n; i++ {
		tA.Send("a", "b", node.DataMsg{Stream: "s", Seq: uint64(i + 1), Tuples: []tuple.Tuple{
			tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i * 10)}.WithData(int64(-i)),
		}})
	}
	driveUntil(t, clkB, 10*time.Second, func() bool { return len(got) == n })
	for i, m := range got {
		if froms[i] != "a" {
			t.Fatalf("frame %d from %q, want a", i, froms[i])
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("frame %d: seq %d, want %d (FIFO violated)", i, m.Seq, i+1)
		}
		if len(m.Tuples) != 1 || m.Tuples[0].ID != uint64(i) || m.Tuples[0].Field(0) != int64(-i) {
			t.Fatalf("frame %d: corrupted payload %v", i, m.Tuples)
		}
	}
	if d := tB.Delivered.Load(); d != n {
		t.Fatalf("Delivered = %d, want %d", d, n)
	}
}

// TestTCPLocalDelivery checks that same-process sends go through the clock
// (asynchronous, FIFO) exactly like netsim.
func TestTCPLocalDelivery(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got []uint64
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(from string, msg any) { got = append(got, msg.(node.AckMsg).UpToID) })
	for i := 0; i < 50; i++ {
		tr.Send("x", "y", node.AckMsg{Stream: "s", UpToID: uint64(i)})
	}
	if len(got) != 0 {
		t.Fatal("local delivery was synchronous")
	}
	clk.RunFor(runtime.Millisecond)
	if len(got) != 50 {
		t.Fatalf("got %d deliveries, want 50", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d: got %d (FIFO violated)", i, v)
		}
	}
}

// TestTCPDownEndpoint checks netsim-parity crash semantics: a down endpoint
// neither sends nor receives, and recovers on SetDown(false).
func TestTCPDownEndpoint(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got int
	tr.Register("x", func(string, any) {})
	tr.Register("y", func(string, any) { got++ })
	tr.SetDown("x", true)
	tr.Send("x", "y", node.KeepAliveReq{})
	tr.SetDown("x", false)
	tr.SetDown("y", true)
	tr.Send("x", "y", node.KeepAliveReq{})
	clk.RunFor(runtime.Millisecond)
	if got != 0 {
		t.Fatalf("down endpoint received %d messages", got)
	}
	tr.SetDown("y", false)
	tr.Send("x", "y", node.KeepAliveReq{})
	clk.RunFor(runtime.Millisecond)
	if got != 1 {
		t.Fatalf("recovered endpoint got %d messages, want 1", got)
	}
	if d := tr.Dropped.Load(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
}

// TestTCPReconnect kills the receiving fabric and brings a new one up on
// the same address: the sender must reconnect and later frames must flow.
// This is the transport half of process-restart: the peer sees silence and
// dropped frames, never an error surfaced to node code.
func TestTCPReconnect(t *testing.T) {
	clkA, clkB := runtime.NewWall(1000), runtime.NewWall(1000)
	tB, err := Listen(clkB, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := tB.Addr()
	tA, err := Listen(clkA, Config{
		ListenAddr: "127.0.0.1:0",
		Routes:     map[string]string{"b": addr},
		// Short backoff so the post-restart redial happens within the
		// test deadline.
		DialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tA.Close()
	tA.Register("a", func(string, any) {})

	var got1 int
	tB.Register("b", func(string, any) { got1++ })
	tA.Send("a", "b", node.KeepAliveReq{})
	driveUntil(t, clkB, 10*time.Second, func() bool { return got1 == 1 })

	tB.Close() // SIGKILL stand-in: the peer process is gone

	tB2, err := Listen(clkB, Config{ListenAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tB2.Close()
	var got2 int
	tB2.Register("b", func(string, any) { got2++ })
	deadline := time.Now().Add(10 * time.Second)
	for got2 == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after restart")
		}
		// Keep sending: frames sent into the dead window are dropped,
		// exactly like socket buffers lost with a killed process.
		tA.Send("a", "b", node.KeepAliveReq{})
		clkB.RunFor(10 * runtime.Millisecond)
	}
}

// TestTCPKeepAliveTimeout is the satellite concurrency-seam test: a real
// client proxy node and a real source, on separate WallClock-driven fabrics
// connected over TCP, with the transport's socket goroutines (not the clock
// loop) injecting every delivery. The proxy's Consistency Manager must see
// the healthy upstream as STABLE, then mark it FAILURE via keep-alive
// timeout once the source's process goes silent — without the engine or CM
// ever running off the clock goroutine (the -race CI run enforces that).
func TestTCPKeepAliveTimeout(t *testing.T) {
	const speed = 50
	clkSrc, clkCli := runtime.NewWall(speed), runtime.NewWall(speed)
	tCli, err := Listen(clkCli, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tCli.Close()
	tSrc, err := Listen(clkSrc, Config{ListenAddr: "127.0.0.1:0", Routes: map[string]string{"client": tCli.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer tSrc.Close()
	tCli.AddRoute("up", tSrc.Addr())

	src := source.New(clkSrc, tSrc, source.Config{ID: "up", Stream: "s", Rate: 100})
	cli, err := client.New(clkCli, tCli, client.Config{
		ID: "client", Stream: "s", Upstreams: []string{"up"},
		BucketSize: 100 * runtime.Millisecond,
		Delay:      200 * runtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the source's clock from a background goroutine — two real
	// processes in miniature.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clkSrc.RunFor(10 * runtime.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()

	src.Start()
	cli.Start()
	cm := cli.Proxy().CM()

	// Phase 1: healthy. The proxy must be receiving data and see the
	// upstream STABLE.
	driveUntil(t, clkCli, 20*time.Second, func() bool {
		return cli.Stats().NewTuples > 0 && cm.State("s", "up") == node.StateStable
	})

	// Phase 2: the source's endpoint goes silent (its fabric drops all
	// its sends — what the peer of a SIGKILLed process observes). The
	// proxy's CM must time the replica out to FAILURE.
	tSrc.SetDown("up", true)
	driveUntil(t, clkCli, 20*time.Second, func() bool {
		return cm.State("s", "up") == node.StateFailure
	})
}

// TestTCPUnroutable checks that sending to an endpoint that is neither
// local nor routed panics: a partition-plan bug, not a runtime condition.
func TestTCPUnroutable(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Register("x", func(string, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("send to unroutable endpoint did not panic")
		}
	}()
	tr.Send("x", "nowhere", node.KeepAliveReq{})
}

// TestTCPQueueOverflow checks the bounded-queue drop policy for data-class
// frames: a peer that never accepts connections must not block Send, and
// overflow is counted under its cause.
func TestTCPQueueOverflow(t *testing.T) {
	clk := runtime.NewWall(1000)
	// Port 1 on localhost: reserved, nothing listens; dials fail fast.
	tr, err := Listen(clk, Config{
		ListenAddr:  "127.0.0.1:0",
		Routes:      map[string]string{"gone": "127.0.0.1:1"},
		QueueLen:    8,
		DialBackoff: time.Hour, // first failure parks the writer
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Register("x", func(string, any) {})
	deadline := time.Now().Add(10 * time.Second)
	for tr.DroppedQueue.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never overflowed")
		}
		tr.Send("x", "gone", node.AckMsg{Stream: "s", UpToID: 1})
	}
	if tr.Dropped.Load() != tr.DroppedQueue.Load() {
		t.Fatalf("aggregate Dropped=%d disagrees with DroppedQueue=%d",
			tr.Dropped.Load(), tr.DroppedQueue.Load())
	}
}

// TestTCPReconnectAfterRespawn is the regression test for the respawn
// race: a worker dies, its peers' writers park in dial backoff, and the
// replacement rebinds the same address. Without the AddRoute kick the
// sender sits out the rest of a (deliberately huge) backoff sleep; with
// it, the re-announcement of the route wakes the dialer immediately.
func TestTCPReconnectAfterRespawn(t *testing.T) {
	clkA, clkB := runtime.NewWall(1000), runtime.NewWall(1000)
	tB, err := Listen(clkB, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := tB.Addr()
	tA, err := Listen(clkA, Config{
		ListenAddr: "127.0.0.1:0",
		Routes:     map[string]string{"b": addr},
		// A backoff far beyond the test deadline: only the kick can
		// recover the connection in time.
		DialBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tA.Close()
	tA.Register("a", func(string, any) {})

	var got1 int
	tB.Register("b", func(string, any) { got1++ })
	tA.Send("a", "b", node.AckMsg{Stream: "s", UpToID: 1})
	driveUntil(t, clkB, 10*time.Second, func() bool { return got1 == 1 })

	tB.Close() // the worker process is SIGKILLed

	// Queue frames while the peer is dead until the writer hits the dial
	// failure and parks in its hour-long backoff.
	deadline := time.Now().Add(10 * time.Second)
	for tA.DroppedWrite.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never observed the dead peer")
		}
		tA.Send("a", "b", node.AckMsg{Stream: "s", UpToID: 2})
		time.Sleep(time.Millisecond)
	}

	// Respawn on the same address, then re-announce the (unchanged)
	// route — the boss does exactly this after a respawn.
	tB2, err := Listen(clkB, Config{ListenAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tB2.Close()
	var got2 int
	tB2.Register("b", func(string, any) { got2++ })
	tA.AddRoute("b", addr)

	deadline = time.Now().Add(10 * time.Second)
	for got2 == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after respawn: the route kick did not wake the dialer")
		}
		tA.Send("a", "b", node.AckMsg{Stream: "s", UpToID: 3})
		clkB.RunFor(10 * runtime.Millisecond)
	}
}

// TestTCPQueuedPairsKeepOrder queues frames of several (from, to) pairs
// while the writer cannot write (its peer is not listening yet), so that
// the writer drains a full queue of pooled frames once it connects: every
// frame must arrive, in send order, with its own payload.
func TestTCPQueuedPairsKeepOrder(t *testing.T) {
	clkA, clkB := runtime.NewWall(1000), runtime.NewWall(1000)
	tB, err := Listen(clkB, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := tB.Addr()
	tB.Close() // nothing listens: the writer fails its dial and parks
	tA, err := Listen(clkA, Config{
		ListenAddr:  "127.0.0.1:0",
		Routes:      map[string]string{"b1": addr, "b2": addr},
		DialBackoff: time.Hour, // only the route kick below wakes it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tA.Close()
	tA.Register("a1", func(string, any) {})
	tA.Register("a2", func(string, any) {})

	pairs := [][2]string{{"a1", "b1"}, {"a2", "b1"}, {"a1", "b2"}, {"a2", "b2"}}
	const n = 327
	for i := 0; i < n; i++ {
		p := pairs[i%len(pairs)]
		tA.Send(p[0], p[1], node.DataMsg{Stream: "s", Seq: uint64(i), Tuples: []tuple.Tuple{
			tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i)}.WithData(int64(i))}})
	}

	tB2, err := Listen(clkB, Config{ListenAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tB2.Close()
	type arrival struct {
		from, to string
		seq      uint64
	}
	var got []arrival
	for _, to := range []string{"b1", "b2"} {
		tB2.Register(to, func(from string, msg any) {
			m := msg.(node.DataMsg)
			if m.Tuples[0].Field(0) != int64(m.Seq) {
				t.Errorf("frame %d: payload %v", m.Seq, m.Tuples)
			}
			got = append(got, arrival{from, to, m.Seq})
		})
	}
	tA.AddRoute("b1", addr)
	driveUntil(t, clkB, 10*time.Second, func() bool { return len(got) == n })
	for i, a := range got {
		if p := pairs[i%len(pairs)]; a.seq != uint64(i) || a.from != p[0] || a.to != p[1] {
			t.Fatalf("arrival %d: %+v, want seq %d on %s→%s", i, a, i, p[0], p[1])
		}
	}
	if d := tA.Dropped.Load(); d != 0 {
		t.Fatalf("%d frames dropped", d)
	}
}

// TestTCPGarbledLengthPrefix sends a header claiming a MaxFrameSize body
// followed by ten bytes and a close: the reader must drop the connection
// without allocating the claimed size, growing its buffer only as bytes
// arrive.
func TestTCPGarbledLengthPrefix(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := binary.BigEndian.AppendUint32(nil, MaxFrameSize)
	msg = append(msg, make([]byte, 10)...)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The reader drops the connection: our read sees its close.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not dropped: read %d bytes, %v", n, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr.mu.Lock()
		open := len(tr.inbound)
		tr.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reader never released the connection")
		}
		time.Sleep(time.Millisecond)
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a %d-byte length claim over 10 body bytes allocated %d B, want < 1 MiB", MaxFrameSize, grew)
	}
}

func BenchmarkCodecDataMsg(b *testing.B) {
	tuples := make([]tuple.Tuple, 64)
	for i := range tuples {
		tuples[i] = tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i) * 1000}.WithData(int64(i), int64(-i))
	}
	msg := node.DataMsg{Stream: "s1", Seq: 42, Tuples: tuples}
	enc, err := AppendFrame(nil, "src1", "n1", msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(enc))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendFrame(buf[:0], "src1", "n1", msg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := DecodeFrame(enc[4:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
