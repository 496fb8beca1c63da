package netsim

import (
	"testing"
	"testing/quick"

	"borealis/internal/fabric"
	"borealis/internal/runtime"
)

type rec struct {
	from string
	msg  any
	at   int64
}

func setup() (*runtime.VirtualClock, *Net, map[string]*[]rec) {
	sim := runtime.NewVirtual()
	n := New(sim)
	boxes := make(map[string]*[]rec)
	for _, id := range []string{"a", "b", "c"} {
		id := id
		box := &[]rec{}
		boxes[id] = box
		n.Register(id, func(from string, msg any) {
			*box = append(*box, rec{from, msg, sim.Now()})
		})
	}
	return sim, n, boxes
}

func TestDeliveryWithLatency(t *testing.T) {
	sim, n, boxes := setup()
	n.SetDefaultLatency(7 * runtime.Millisecond)
	n.Send("a", "b", "hello")
	sim.Run()
	got := *boxes["b"]
	if len(got) != 1 || got[0].msg != "hello" || got[0].from != "a" {
		t.Fatalf("delivery wrong: %+v", got)
	}
	if got[0].at != 7*runtime.Millisecond {
		t.Fatalf("delivered at %d, want %d", got[0].at, 7*runtime.Millisecond)
	}
}

func TestPerLinkLatencyOverride(t *testing.T) {
	sim, n, boxes := setup()
	n.SetLatency("a", "b", 20*runtime.Millisecond)
	n.Send("a", "b", 1)
	n.Send("a", "c", 2)
	sim.Run()
	if (*boxes["b"])[0].at != 20*runtime.Millisecond {
		t.Errorf("a→b latency override not applied")
	}
	if (*boxes["c"])[0].at != DefaultLatency {
		t.Errorf("a→c should use default latency")
	}
	if n.Latency("b", "a") != 20*runtime.Millisecond {
		t.Errorf("latency must be symmetric")
	}
}

func TestFIFOPerLink(t *testing.T) {
	sim, n, boxes := setup()
	// Shrink the latency after sending the first message: the second
	// message must still arrive after the first.
	n.SetLatency("a", "b", 50*runtime.Millisecond)
	n.Send("a", "b", 1)
	n.SetLatency("a", "b", 1*runtime.Millisecond)
	n.Send("a", "b", 2)
	sim.Run()
	got := *boxes["b"]
	if len(got) != 2 || got[0].msg != 1 || got[1].msg != 2 {
		t.Fatalf("FIFO violated: %+v", got)
	}
	if got[1].at < got[0].at {
		t.Fatalf("second message delivered before first")
	}
}

func TestPartitionDropsTraffic(t *testing.T) {
	sim, n, boxes := setup()
	n.Partition("a", "b")
	n.Send("a", "b", "lost")
	n.Send("b", "a", "lost too")
	n.Send("a", "c", "ok")
	sim.Run()
	if len(*boxes["b"]) != 0 || len(*boxes["a"]) != 0 {
		t.Fatal("partitioned messages must be dropped")
	}
	if len(*boxes["c"]) != 1 {
		t.Fatal("unrelated link must still work")
	}
	if n.Dropped != 2 || n.Delivered != 1 {
		t.Fatalf("counters: dropped=%d delivered=%d", n.Dropped, n.Delivered)
	}
}

func TestPartitionKillsInFlight(t *testing.T) {
	sim, n, boxes := setup()
	n.SetLatency("a", "b", 10*runtime.Millisecond)
	n.Send("a", "b", "in-flight")
	sim.RunUntil(5 * runtime.Millisecond)
	n.Partition("a", "b")
	sim.Run()
	if len(*boxes["b"]) != 0 {
		t.Fatal("message in flight across a new partition must be dropped")
	}
}

func TestHealRestores(t *testing.T) {
	sim, n, boxes := setup()
	n.Partition("a", "b")
	n.Send("a", "b", 1)
	sim.Run()
	n.Heal("a", "b")
	n.Send("a", "b", 2)
	sim.Run()
	got := *boxes["b"]
	if len(got) != 1 || got[0].msg != 2 {
		t.Fatalf("after heal: %+v", got)
	}
}

func TestPartitionGroups(t *testing.T) {
	sim, n, boxes := setup()
	n.PartitionGroups([]string{"a"}, []string{"b", "c"})
	n.Send("a", "b", 1)
	n.Send("a", "c", 1)
	n.Send("b", "c", 1) // same side: fine
	sim.Run()
	if len(*boxes["b"]) != 0 || len(*boxes["a"]) != 0 {
		t.Fatal("cross-group traffic must drop")
	}
	if len(*boxes["c"]) != 1 {
		t.Fatal("intra-group traffic must flow")
	}
	n.HealGroups([]string{"a"}, []string{"b", "c"})
	if !n.Reachable("a", "b") || !n.Reachable("a", "c") {
		t.Fatal("HealGroups must restore reachability")
	}
}

func TestDownEndpoint(t *testing.T) {
	sim, n, boxes := setup()
	n.SetDown("b", true)
	n.Send("a", "b", "to crashed")
	n.Send("b", "a", "from crashed")
	sim.Run()
	if len(*boxes["b"]) != 0 || len(*boxes["a"]) != 0 {
		t.Fatal("downed endpoint must not send or receive")
	}
	if !n.Down("b") {
		t.Fatal("Down(b) should be true")
	}
	n.SetDown("b", false)
	n.Send("a", "b", "recovered")
	sim.Run()
	if len(*boxes["b"]) != 1 {
		t.Fatal("recovered endpoint must receive")
	}
}

func TestCrashKillsInFlight(t *testing.T) {
	sim, n, boxes := setup()
	n.SetLatency("a", "b", 10*runtime.Millisecond)
	n.Send("a", "b", "in-flight")
	sim.RunUntil(2 * runtime.Millisecond)
	n.SetDown("b", true)
	sim.Run()
	if len(*boxes["b"]) != 0 {
		t.Fatal("message in flight to a crashing endpoint must drop")
	}
}

func TestReachable(t *testing.T) {
	_, n, _ := setup()
	if !n.Reachable("a", "b") {
		t.Fatal("fresh endpoints should be reachable")
	}
	n.Partition("a", "b")
	if n.Reachable("a", "b") {
		t.Fatal("partitioned pair should be unreachable")
	}
	if n.Reachable("a", "zzz") {
		t.Fatal("unknown endpoint should be unreachable")
	}
	// A directed SetLink block is the same table entry a partition sets:
	// it must show through Reachable too, in its direction only.
	n.SetLink("a", "c", fabric.LinkState{Block: true})
	if n.Reachable("a", "c") {
		t.Fatal("SetLink-blocked direction should be unreachable")
	}
	if !n.Reachable("c", "a") {
		t.Fatal("the reverse of a one-way block should stay reachable")
	}
	n.SetLink("a", "c", fabric.LinkState{})
	if !n.Reachable("a", "c") {
		t.Fatal("released block should restore reachability")
	}
}

func TestEndpointsSorted(t *testing.T) {
	_, n, _ := setup()
	ids := n.Endpoints()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("Endpoints() = %v", ids)
	}
}

func TestReregisterReplacesHandler(t *testing.T) {
	sim := runtime.NewVirtual()
	n := New(sim)
	var first, second int
	n.Register("x", func(string, any) { first++ })
	n.Register("y", func(string, any) {})
	n.Register("x", func(string, any) { second++ })
	n.Send("y", "x", 1)
	sim.Run()
	if first != 0 || second != 1 {
		t.Fatalf("re-registered handler not used: first=%d second=%d", first, second)
	}
}

// Property: any interleaving of sends on one link is received in send order.
// TestFIFOPerLinkForLateEndpoints: the clamp is kept per ordered pair,
// indexed by the sender, for endpoints registered after traffic began in
// either role, and a sender's clamp on one receiver does not delay its
// messages to another.
func TestFIFOPerLinkForLateEndpoints(t *testing.T) {
	sim, n, boxes := setup()
	n.Send("a", "b", 0)
	var late []rec
	n.Register("d", func(from string, msg any) { late = append(late, rec{from, msg, sim.Now()}) })
	n.SetLatency("d", "b", 50*runtime.Millisecond)
	n.SetLatency("a", "d", 40*runtime.Millisecond)
	n.Send("d", "b", 1)
	n.Send("a", "d", 1)
	n.SetLatency("d", "b", runtime.Millisecond)
	n.SetLatency("a", "d", runtime.Millisecond)
	n.Send("d", "b", 2)
	n.Send("a", "d", 2)
	n.Send("d", "c", 3)
	sim.Run()
	for _, tc := range []struct {
		got  []rec
		from string
	}{{(*boxes["b"])[1:], "d"}, {late, "a"}} {
		if len(tc.got) != 2 || tc.got[0].msg != 1 || tc.got[1].msg != 2 || tc.got[1].at != tc.got[0].at || tc.got[0].from != tc.from {
			t.Fatalf("from %s: FIFO violated: %+v", tc.from, tc.got)
		}
	}
	if got := *boxes["c"]; len(got) != 1 || got[0].at != DefaultLatency {
		t.Fatalf("d → c was clamped behind d → b: %+v", got)
	}
}

func TestQuickFIFO(t *testing.T) {
	f := func(lat []uint8) bool {
		sim := runtime.NewVirtual()
		n := New(sim)
		n.Register("s", func(string, any) {})
		var got []int
		n.Register("r", func(_ string, msg any) { got = append(got, msg.(int)) })
		for i, l := range lat {
			n.SetLatency("s", "r", int64(l)*runtime.Millisecond)
			n.Send("s", "r", i)
		}
		sim.Run()
		if len(got) != len(lat) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetLinkBlock checks the directed link fault: block drops one
// direction only (at delivery time, like Partition), and the zero LinkState
// heals it.
func TestSetLinkBlock(t *testing.T) {
	sim, n, boxes := setup()
	n.SetLink("a", "b", fabric.LinkState{Block: true})
	n.Send("a", "b", "m1")
	n.Send("b", "a", "m2") // reverse direction stays open
	sim.Run()
	if len(*boxes["b"]) != 0 {
		t.Fatalf("blocked link delivered: %+v", *boxes["b"])
	}
	if len(*boxes["a"]) != 1 {
		t.Fatalf("reverse direction lost: %+v", *boxes["a"])
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
	n.SetLink("a", "b", fabric.LinkState{})
	n.Send("a", "b", "m3")
	sim.Run()
	if len(*boxes["b"]) != 1 {
		t.Fatalf("healed link lost: %+v", *boxes["b"])
	}
}

// TestSetLinkBlockKillsInFlight checks delivery-time semantics: a block
// installed while a message is in flight kills it.
func TestSetLinkBlockKillsInFlight(t *testing.T) {
	sim, n, boxes := setup()
	n.Send("a", "b", "doomed")
	n.SetLink("a", "b", fabric.LinkState{Block: true})
	sim.Run()
	if len(*boxes["b"]) != 0 {
		t.Fatal("in-flight message survived a link block")
	}
}

// TestSetLinkDelay checks that DelayUS stretches the link latency.
func TestSetLinkDelay(t *testing.T) {
	sim, n, boxes := setup()
	n.SetDefaultLatency(5 * runtime.Millisecond)
	n.SetLink("a", "b", fabric.LinkState{DelayUS: 20 * runtime.Millisecond})
	n.Send("a", "b", "slow")
	sim.Run()
	got := *boxes["b"]
	if len(got) != 1 {
		t.Fatalf("delayed message lost: %+v", got)
	}
	if got[0].at != 25*runtime.Millisecond {
		t.Fatalf("delivered at %d, want %d", got[0].at, 25*runtime.Millisecond)
	}
}

// TestOverlappingPartitionsStayBlocked: two partition faults of one pair
// whose windows overlap. Blocks are counted, so the first heal must not
// reconnect a pair the second fault still holds.
func TestOverlappingPartitionsStayBlocked(t *testing.T) {
	sim, n, boxes := setup()
	n.Partition("a", "b")
	n.Partition("b", "a") // the same pair, named the other way round
	n.Heal("a", "b")
	n.Send("a", "b", "m1")
	n.Send("b", "a", "m2")
	sim.Run()
	if len(*boxes["b"]) != 0 || len(*boxes["a"]) != 0 {
		t.Fatal("first heal reconnected a pair a second partition still holds")
	}
	if !n.Partitioned("a", "b") || n.Reachable("a", "b") {
		t.Fatal("pair should still read as partitioned")
	}
	n.Heal("a", "b")
	n.Heal("a", "b") // an extra heal is a no-op, not a negative count
	n.Partition("a", "b")
	n.Heal("a", "b")
	n.Send("a", "b", "m3")
	sim.Run()
	if len(*boxes["b"]) != 1 {
		t.Fatalf("pair still severed after every partition healed: %+v", *boxes["b"])
	}
}
