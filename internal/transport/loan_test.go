package transport

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// loanFrameTuples is the size of the frames the loopback loan tests send:
// a decoded array of them is loanFrameTuples × 48 B, far above everything
// else a frame allocates on its way through the fabric.
const loanFrameTuples = 128

// loanWindow is the frames loopbackStream keeps in flight.
const loanWindow = 8

// loopbackStream sends frames DataMsgs from one fabric to a handler on a
// second over a loopback socket, registered as one that returns its loans, keeping at most loanWindow frames in
// flight — fewer than a pool keeps, so a receiver that keeps up can run on
// returned arrays alone — and reports the bytes the process allocated per frame
// over the last steady frames. The receiving clock runs on its own
// goroutine, as in a deployment.
func loopbackStream(t *testing.T, frames, steady int, handle func(m node.DataMsg)) float64 {
	t.Helper()
	clkA, clkB := runtime.NewWall(1), runtime.NewWall(1)
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
	var delivered atomic.Int64
	tA.Register("a", func(string, any) {})
	tB.RegisterReturning("b", func(_ string, msg any) {
		handle(msg.(node.DataMsg))
		delivered.Add(1)
	})
	var stop atomic.Bool
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for !stop.Load() {
			clkB.RunFor(runtime.Millisecond)
		}
	}()
	defer func() {
		stop.Store(true)
		<-loopDone
	}()

	ts := make([]tuple.Tuple, loanFrameTuples)
	var ms goruntime.MemStats
	var before uint64
	deadline := time.Now().Add(60 * time.Second)
	wait := func(upTo int64) {
		for delivered.Load() < upTo {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames delivered before the deadline", delivered.Load(), upTo)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	for i := 0; i < frames; i++ {
		if i == frames-steady {
			wait(int64(i))
			goruntime.ReadMemStats(&ms)
			before = ms.TotalAlloc
		}
		wait(int64(i) - loanWindow)
		for j := range ts {
			id := uint64(i*loanFrameTuples + j)
			ts[j] = tuple.Tuple{Type: tuple.Insertion, ID: id, STime: int64(id)}
		}
		tA.Send("a", "b", node.DataMsg{Stream: "s", Seq: uint64(i + 1), Tuples: ts})
	}
	wait(int64(frames))
	goruntime.ReadMemStats(&ms)
	if n := tB.DroppedQueue.Load() + tA.DroppedQueue.Load(); n != 0 {
		t.Fatalf("%d frames shed", n)
	}
	return float64(ms.TotalAlloc-before) / float64(steady)
}

// checkFrame fails unless m is frame seq of loopbackStream, intact.
func checkFrame(t *testing.T, m node.DataMsg) {
	if len(m.Tuples) != loanFrameTuples {
		t.Errorf("frame %d: %d tuples", m.Seq, len(m.Tuples))
		return
	}
	for j, tp := range m.Tuples {
		if want := (m.Seq-1)*loanFrameTuples + uint64(j); tp.ID != want || tp.STime != int64(want) || tp.Type != tuple.Insertion {
			t.Errorf("frame %d tuple %d: %v, want id %d", m.Seq, j, tp, want)
			return
		}
	}
}

// TestTCPReturnedLoansAreReused sends 10 000 DataMsgs over loopback through
// a handler that returns each loan after reading it: in steady state the
// read loop decodes into returned arrays, so a frame allocates well under
// one tuple array. The frames arrive intact and every loan came back.
func TestTCPReturnedLoansAreReused(t *testing.T) {
	const frames = 10_000
	var returned int
	var pool *tuple.LoanPool
	perFrame := loopbackStream(t, frames, frames/2, func(m node.DataMsg) {
		checkFrame(t, m)
		if m.Pool == nil {
			t.Fatalf("frame %d carries no loan", m.Seq)
		}
		pool = m.Pool
		m.Pool.Return(m.Tuples)
		returned++
	})
	if returned != frames || pool.Returned() != frames {
		t.Fatalf("returned %d loans, pool counted %d, want %d", returned, pool.Returned(), frames)
	}
	array := float64(loanFrameTuples * 48)
	t.Logf("%.0f B allocated per frame; a decoded tuple array is %.0f B", perFrame, array)
	if tuple.Poisoning() {
		return // a loanpoison build never lends a returned array again
	}
	if perFrame > array/2 {
		t.Fatalf("steady state allocated %.0f B per frame, want under %.0f: decoding still allocates tuple arrays", perFrame, array/2)
	}
}

// TestTCPLocalSendLendsACopy: a DataMsg sent to a local endpoint that
// returns loans arrives as a copy lent from the fabric's pool, so the sender may overwrite its array
// as soon as Send returns. Once the handler returns the loan, the next send
// of the same size is delivered in the returned array instead of a new one.
func TestTCPLocalSendLendsACopy(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got []node.DataMsg
	tr.Register("x", func(string, any) {})
	tr.RegisterReturning("y", func(_ string, msg any) {
		m := msg.(node.DataMsg)
		checkFrame(t, m)
		got = append(got, m)
	})
	ts := make([]tuple.Tuple, loanFrameTuples)
	for seq := uint64(1); seq <= 2; seq++ {
		for j := range ts {
			id := (seq-1)*loanFrameTuples + uint64(j)
			ts[j] = tuple.Tuple{Type: tuple.Insertion, ID: id, STime: int64(id)}
		}
		tr.Send("x", "y", node.DataMsg{Stream: "s", Seq: seq, Tuples: ts})
		for j := range ts {
			ts[j] = tuple.Tuple{Type: tuple.Tentative, ID: 1 << 40}
		}
		clk.RunFor(runtime.Millisecond)
		if len(got) != int(seq) {
			t.Fatalf("send %d: %d deliveries", seq, len(got))
		}
		m := got[seq-1]
		if m.Pool != &tr.loans {
			t.Fatalf("send %d: delivered with pool %p, want the fabric's %p", seq, m.Pool, &tr.loans)
		}
		if &m.Tuples[0] == &ts[0] {
			t.Fatalf("send %d: delivered the sender's array", seq)
		}
		m.Pool.Return(m.Tuples)
	}
	if n := tr.loans.Returned(); n != 2 {
		t.Fatalf("pool counted %d returns, want 2", n)
	}
	if tuple.Poisoning() {
		return // a loanpoison build never lends a returned array again
	}
	if &got[1].Tuples[0] != &got[0].Tuples[0] {
		t.Fatal("the second send allocated a tuple array instead of reusing the returned loan")
	}
}

// TestTCPLocalSendEdgeCases: an empty DataMsg arrives with no array and no
// loan, and a local send dropped on a blocked link keeps its loan for the
// garbage collector, as a dropped remote frame does.
func TestTCPLocalSendEdgeCases(t *testing.T) {
	clk := runtime.NewWall(1000)
	tr, err := Listen(clk, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got []node.DataMsg
	tr.Register("x", func(string, any) {})
	tr.RegisterReturning("y", func(_ string, msg any) { got = append(got, msg.(node.DataMsg)) })

	tr.Send("x", "y", node.DataMsg{Stream: "s", Seq: 1, Tuples: make([]tuple.Tuple, 0, 8)})
	clk.RunFor(runtime.Millisecond)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("empty DataMsg: %d deliveries", len(got))
	}
	if got[0].Tuples != nil || got[0].Pool != nil {
		t.Fatalf("empty DataMsg delivered with array cap %d and pool %p, want neither", cap(got[0].Tuples), got[0].Pool)
	}

	tr.Send("x", "y", node.DataMsg{Stream: "s", Seq: 2, Tuples: []tuple.Tuple{tuple.NewInsertion(1)}})
	tr.SetLink("x", "y", fabric.LinkState{Block: true})
	clk.RunFor(runtime.Millisecond)
	if len(got) != 1 {
		t.Fatal("a send on a link blocked while in flight was delivered")
	}
	if n := tr.DroppedLink.Load(); n != 1 {
		t.Fatalf("DroppedLink = %d, want 1", n)
	}
	if n := tr.loans.Returned(); n != 0 {
		t.Fatalf("pool counted %d returns, want 0: a dropped loan goes to the garbage collector", n)
	}
}
