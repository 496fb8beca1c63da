package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/transport"
	"borealis/internal/tuple"
)

// contractFabric is one fabric under the contract test: "src" is
// registered on send, the receivers register on recv, and deliver runs the
// receiving side's clock until done reports true.
type contractFabric struct {
	send    fabric.Fabric
	recv    fabric.Lender
	local   bool // send and recv are one fabric: a given array can arrive itself
	deliver func(t *testing.T, done func() bool)
}

// contractFabrics builds netsim, one TCP fabric sending to its own local
// endpoints, and two TCP fabrics over a loopback socket.
var contractFabrics = []struct {
	name string
	mk   func(t *testing.T) contractFabric
}{
	{"netsim", func(t *testing.T) contractFabric {
		sim := runtime.NewVirtual()
		net := netsim.New(sim)
		return contractFabric{send: net, recv: net, local: true, deliver: func(*testing.T, func() bool) { sim.Run() }}
	}},
	{"tcp-local", func(t *testing.T) contractFabric {
		clk := runtime.NewWall(1000)
		tr := listen(t, clk, nil)
		return contractFabric{send: tr, recv: tr, local: true, deliver: runUntil(clk)}
	}},
	{"tcp-remote", func(t *testing.T) contractFabric {
		clkB := runtime.NewWall(1)
		tB := listen(t, clkB, nil)
		tA := listen(t, runtime.NewWall(1), map[string]string{"keep": tB.Addr(), "ret": tB.Addr()})
		return contractFabric{send: tA, recv: tB, deliver: runUntil(clkB)}
	}},
}

func listen(t *testing.T, clk runtime.Runtime, routes map[string]string) *transport.TCP {
	t.Helper()
	tr, err := transport.Listen(clk, transport.Config{ListenAddr: "127.0.0.1:0", Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// runUntil drives a wall clock on the calling goroutine, so handlers run on
// the test's, until done or a deadline.
func runUntil(clk *runtime.WallClock) func(t *testing.T, done func() bool) {
	return func(t *testing.T, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatal("messages not delivered before the deadline")
			}
			clk.RunFor(runtime.Millisecond)
		}
	}
}

func contractBatch(first uint64, n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		id := first + uint64(i)
		ts[i] = tuple.Tuple{Type: tuple.Insertion, ID: id, STime: int64(id)}.WithData(int64(id), 2, 3)
	}
	return ts
}

func sameContent(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestFabricContract holds netsim and the TCP transport, locally and
// across a socket, to the tuple-array contract of fabric.Fabric: a lent
// array may be overwritten as soon as Send returns; an endpoint registered
// with RegisterReturning gets a loan (Pool set) and a plain one an array it
// owns (given, Pool nil); a given array arrives as the same array where no
// socket lies between; an empty batch carries no array; and an endpoint
// re-registered as a plain one while a loan to it is in flight gets an
// array it owns.
func TestFabricContract(t *testing.T) {
	for _, fc := range contractFabrics {
		t.Run(fc.name, func(t *testing.T) {
			f := fc.mk(t)
			got := map[string][]node.DataMsg{}
			handler := func(id string) fabric.Handler {
				return func(_ string, msg any) { got[id] = append(got[id], msg.(node.DataMsg)) }
			}
			f.send.Register("src", func(string, any) {})
			f.recv.Register("keep", handler("keep"))
			f.recv.RegisterReturning("ret", handler("ret"))
			seq := uint64(0)
			// round sends one message to each receiver and returns the
			// delivered pair.
			round := func(what string, m node.DataMsg, after func()) (keep, ret node.DataMsg) {
				t.Helper()
				seq++
				m.Stream, m.Seq = "s", seq
				f.send.Send("src", "keep", m)
				f.send.Send("src", "ret", m)
				if after != nil {
					after()
				}
				f.deliver(t, func() bool { return len(got["keep"]) == int(seq) && len(got["ret"]) == int(seq) })
				keep, ret = got["keep"][seq-1], got["ret"][seq-1]
				if keep.Seq != seq || ret.Seq != seq {
					t.Fatalf("%s: delivered seqs %d and %d, want %d", what, keep.Seq, ret.Seq, seq)
				}
				return keep, ret
			}

			ts := contractBatch(1, 64)
			want := contractBatch(1, 64)
			keep, ret := round("lent", node.DataMsg{Tuples: ts}, func() {
				for i := range ts {
					ts[i] = tuple.Tuple{Type: tuple.Tentative, ID: 1 << 40}
				}
			})
			for id, m := range map[string]node.DataMsg{"keep": keep, "ret": ret} {
				if !sameContent(m.Tuples, want) {
					t.Errorf("lent: %s saw the sender's overwrite: %v", id, m.Tuples[:2])
				}
				if &m.Tuples[0] == &ts[0] {
					t.Errorf("lent: %s got the sender's array", id)
				}
			}
			if keep.Pool != nil || !keep.Given {
				t.Errorf("lent: the plain endpoint got pool %p, given %v; want an array it owns", keep.Pool, keep.Given)
			}
			if ret.Pool == nil {
				t.Error("lent: the returning endpoint got no loan")
			}
			ret.Pool.Return(ret.Tuples)

			g := contractBatch(100, 8)
			keep, ret = round("given", node.DataMsg{Tuples: g, Given: true}, nil)
			for id, m := range map[string]node.DataMsg{"keep": keep, "ret": ret} {
				if !sameContent(m.Tuples, contractBatch(100, 8)) {
					t.Errorf("given: %s got %v", id, m.Tuples)
				}
				if f.local && (&m.Tuples[0] != &g[0] || m.Pool != nil) {
					t.Errorf("given: %s got a copy (pool %p), want the array itself", id, m.Pool)
				}
			}
			ret.Pool.Return(ret.Tuples) // a loan only across a socket

			keep, ret = round("empty", node.DataMsg{Tuples: make([]tuple.Tuple, 0, 8)}, nil)
			for id, m := range map[string]node.DataMsg{"keep": keep, "ret": ret} {
				if m.Tuples != nil || m.Pool != nil {
					t.Errorf("empty: %s got an array of cap %d, pool %p; want neither", id, cap(m.Tuples), m.Pool)
				}
			}

			seq++
			f.send.Send("src", "ret", node.DataMsg{Stream: "s", Seq: seq, Tuples: contractBatch(200, 4)})
			f.recv.Register("ret", handler("ret"))
			f.deliver(t, func() bool { return len(got["ret"]) == int(seq) })
			if m := got["ret"][seq-1]; m.Pool != nil || !m.Given || !sameContent(m.Tuples, contractBatch(200, 4)) {
				t.Errorf("re-registered in flight: got pool %p, given %v, %s; want an array of its own", m.Pool, m.Given, fmt.Sprint(m.Tuples))
			}
		})
	}
}
