package source

import (
	goruntime "runtime"
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

type sink struct {
	tuples []tuple.Tuple
}

func setup(cfg Config) (*runtime.VirtualClock, *netsim.Net, *Source, *sink) {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)
	cfg.ID = "src"
	cfg.Stream = "s"
	s := New(sim, net, cfg)
	k := &sink{}
	net.Register("dn", func(_ string, msg any) {
		if dm, ok := msg.(node.DataMsg); ok {
			k.tuples = append(k.tuples, dm.Tuples...)
		}
	})
	return sim, net, s, k
}

func subscribe(net *netsim.Net, sim *runtime.VirtualClock, from uint64) {
	net.Send("dn", "src", node.SubscribeMsg{Stream: "s", FromID: from})
	sim.RunFor(10 * ms)
}

func data(ts []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range ts {
		if t.IsData() {
			out = append(out, t)
		}
	}
	return out
}

func bounds(ts []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range ts {
		if t.Type == tuple.Boundary {
			out = append(out, t)
		}
	}
	return out
}

func TestSourceRateAndTimestamps(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(2 * sec)
	got := data(k.tuples)
	if len(got) < 190 || len(got) > 210 {
		t.Fatalf("rate wrong: %d tuples in 2s at 100/s", len(got))
	}
	for i, tp := range got {
		if tp.ID != uint64(i+1) {
			t.Fatalf("ids not sequential: %v at %d", tp, i)
		}
		if tp.STime <= 0 || tp.STime > sim.Now() {
			t.Fatalf("bad stime: %v", tp)
		}
	}
}

func TestSourceBoundaryCadenceAndContract(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100, BoundaryInterval: 100 * ms})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	bs := bounds(k.tuples)
	if len(bs) < 9 || len(bs) > 11 {
		t.Fatalf("boundary cadence wrong: %d in 1s at 100ms", len(bs))
	}
	// Punctuation contract: no later tuple may have stime below an
	// earlier boundary.
	maxBound := int64(-1)
	for _, tp := range k.tuples {
		if tp.Type == tuple.Boundary {
			if tp.STime > maxBound {
				maxBound = tp.STime
			}
		} else if tp.IsData() && tp.STime < maxBound {
			t.Fatalf("boundary contract violated: %v after boundary %d", tp, maxBound)
		}
	}
}

func TestSourceSubscribeFromIDReplays(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	s.Start()
	sim.RunFor(1 * sec) // 100 tuples logged, nobody listening
	subscribe(net, sim, 50)
	sim.RunFor(100 * ms)
	got := data(k.tuples)
	if len(got) == 0 || got[0].ID != 51 {
		t.Fatalf("replay must start after id 50: %v", got[:min(3, len(got))])
	}
}

func TestSourceDisconnectReplaysOnReconnect(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	s.Disconnect()
	sim.RunFor(20 * ms) // drain in-flight messages
	before := len(data(k.tuples))
	sim.RunFor(2 * sec)
	if len(data(k.tuples)) != before {
		t.Fatal("disconnected source must not transmit")
	}
	if s.Produced < 250 {
		t.Fatalf("production must continue while disconnected: %d", s.Produced)
	}
	s.Reconnect()
	sim.RunFor(100 * ms)
	got := data(k.tuples)
	// Everything missed arrives; ids stay gap-free.
	for i, tp := range got {
		if tp.ID != uint64(i+1) {
			t.Fatalf("gap after reconnect at %d: %v", i, tp)
		}
	}
	if len(got) < 290 {
		t.Fatalf("missed tuples not replayed: %d", len(got))
	}
}

func TestSourceStallBoundariesKeepsDataFlowing(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100, BoundaryInterval: 100 * ms})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(1 * sec)
	s.StallBoundaries()
	sim.RunFor(20 * ms) // drain in-flight messages
	nData, nBounds := len(data(k.tuples)), len(bounds(k.tuples))
	sim.RunFor(1 * sec)
	if len(bounds(k.tuples)) != nBounds {
		t.Fatal("stalled source must not emit boundaries")
	}
	if len(data(k.tuples)) <= nData+80 {
		t.Fatalf("data must keep flowing during a stall: %d → %d", nData, len(data(k.tuples)))
	}
	s.ResumeBoundaries()
	sim.RunFor(200 * ms)
	if len(bounds(k.tuples)) <= nBounds {
		t.Fatal("boundaries must resume")
	}
}

func TestSourceBoundedLogDrops(t *testing.T) {
	sim, _, s, _ := setup(Config{Rate: 1000, LogCap: 100})
	s.Start()
	sim.RunFor(1 * sec)
	if s.LogLen() > 100 {
		t.Fatalf("log exceeded cap: %d", s.LogLen())
	}
	if s.DroppedLog == 0 {
		t.Fatal("bounded log must report drops")
	}
}

func TestSourceKeepAliveAlwaysStable(t *testing.T) {
	sim, net, _, _ := setup(Config{Rate: 100})
	var resp *node.KeepAliveResp
	net.Register("probe", func(_ string, msg any) {
		if r, ok := msg.(node.KeepAliveResp); ok {
			resp = &r
		}
	})
	net.Send("probe", "src", node.KeepAliveReq{})
	sim.RunFor(50 * ms)
	if resp == nil || resp.Node != node.StateStable || resp.Streams["s"] != node.StateStable {
		t.Fatalf("keep-alive resp: %+v", resp)
	}
}

func TestSourceUnsubscribeStops(t *testing.T) {
	sim, net, s, k := setup(Config{Rate: 100})
	subscribe(net, sim, 0)
	s.Start()
	sim.RunFor(500 * ms)
	net.Send("dn", "src", node.UnsubscribeMsg{Stream: "s"})
	sim.RunFor(50 * ms)
	n := len(k.tuples)
	sim.RunFor(1 * sec)
	if len(k.tuples) != n {
		t.Fatal("unsubscribed sink still receiving")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// logTuple is the i-th data tuple appended by the bounded-log tests.
func logTuple(i int) tuple.Tuple {
	return tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i)}
}

func TestSourceBoundedLogAppendIsLinear(t *testing.T) {
	// A full capped log once recopied itself on every append: 100 000
	// appends at LogCap 1 000 moved 10^8 tuples (~5 GB).
	_, _, s, _ := setup(Config{LogCap: 1000})
	const n = 100000
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		s.append(logTuple(i))
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 512 {
		t.Fatalf("an append to a full capped log allocates %d B on average, want O(1) (≤ 512 B)", per)
	}
	if s.LogLen() != 1000 || s.DroppedLog != n-1000 {
		t.Fatalf("LogLen %d, DroppedLog %d; want 1000, %d", s.LogLen(), s.DroppedLog, n-1000)
	}
	for i, tp := range s.log {
		if want := uint64(n - 1000 + 1 + i); tp.ID != want {
			t.Fatalf("log[%d] = id %d, want %d", i, tp.ID, want)
		}
	}
}

func TestSourceBoundedLogKeepsSentBatchesIntact(t *testing.T) {
	// flush sends views of the log; eviction and growth must leave every
	// batch already handed out exactly as it was sent.
	sim, net, s, _ := setup(Config{LogCap: 64})
	var held [][]tuple.Tuple
	var want [][]tuple.Tuple
	net.Register("dn", func(_ string, msg any) {
		if dm, ok := msg.(node.DataMsg); ok {
			held = append(held, dm.Tuples)
			want = append(want, append([]tuple.Tuple(nil), dm.Tuples...))
		}
	})
	subscribe(net, sim, 0)
	for i := 1; i <= 2000; i++ {
		s.append(logTuple(i))
		if i%7 == 0 {
			s.flush()
			sim.RunFor(ms)
		}
	}
	if len(held) < 200 {
		t.Fatalf("only %d batches sent", len(held))
	}
	for b := range held {
		for i := range held[b] {
			if !tuple.Equal(held[b][i], want[b][i]) {
				t.Fatalf("batch %d slot %d changed after sending: %v, sent %v", b, i, held[b][i], want[b][i])
			}
		}
	}
}

func TestSourceBoundedLogPositionsAndReplay(t *testing.T) {
	sim, net, s, k := setup(Config{LogCap: 100})
	// A subscriber that falls behind the horizon resumes at the oldest
	// tuple still logged, gap-free from there.
	subscribe(net, sim, 0)
	s.Disconnect()
	for i := 1; i <= 1000; i++ {
		s.append(logTuple(i))
	}
	if s.DroppedLog != 900 || s.LogLen() != 100 {
		t.Fatalf("DroppedLog %d, LogLen %d; want 900, 100", s.DroppedLog, s.LogLen())
	}
	s.Reconnect()
	s.flush()
	sim.RunFor(10 * ms)
	if len(k.tuples) != 100 || k.tuples[0].ID != 901 || k.tuples[99].ID != 1000 {
		t.Fatalf("lagging subscriber got %d tuples from id %d", len(k.tuples), k.tuples[0].ID)
	}
	// FromID inside the window replays after it; FromID behind the horizon
	// (evicted) replays the whole window.
	for _, c := range []struct{ from, first uint64 }{{950, 951}, {1000, 0}, {500, 901}, {0, 901}} {
		k.tuples = nil
		subscribe(net, sim, c.from)
		switch {
		case c.first == 0 && len(k.tuples) != 0:
			t.Fatalf("FromID %d: want nothing, got %d tuples", c.from, len(k.tuples))
		case c.first != 0 && (len(k.tuples) == 0 || k.tuples[0].ID != c.first || k.tuples[len(k.tuples)-1].ID != 1000):
			t.Fatalf("FromID %d: replay %v, want %d..1000", c.from, k.tuples, c.first)
		}
	}
}
