package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"borealis/internal/diagram"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// chunkRun is one engine of a chunked-ingest comparison: it records every
// output tuple with the virtual instant it came out at.
type chunkRun struct {
	sim     *runtime.VirtualClock
	e       *Engine
	out     []tuple.Tuple
	at      []int64
	flipped int // output count when the policy flipped; -1 before
}

// newChunkRun builds the chain on one plane with a finite capacity, so a
// batch's service charge shows in the output instants. Once flipAt > 0
// outputs are out, it flips every SUnion to PolicyProcess, as a node
// controller reacting to a signal mid-dispatch would.
func newChunkRun(t *testing.T, perTuple bool, flipAt int) *chunkRun {
	r := &chunkRun{sim: runtime.NewVirtual(), flipped: -1}
	r.e = New(r.sim, chainDiagram(t), Config{Capacity: 50000})
	if perTuple {
		r.e.UseReferencePlane()
	}
	record := func(ts ...tuple.Tuple) {
		for _, tp := range ts {
			r.out = append(r.out, tp)
			r.at = append(r.at, r.sim.Now())
		}
		if flipAt > 0 && r.flipped < 0 && len(r.out) >= flipAt {
			r.flipped = len(r.out)
			r.e.SetPolicyAll(operator.PolicyProcess)
		}
	}
	r.e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { record(ts...) })
	return r
}

// split cuts ts into pieces of the given sizes, the last piece taking the
// rest; nil sizes give no pieces.
func split(ts []tuple.Tuple, sizes []int) [][]tuple.Tuple {
	var out [][]tuple.Tuple
	for _, n := range sizes {
		out = append(out, ts[:n:n])
		ts = ts[n:]
	}
	if sizes != nil {
		out = append(out, ts)
	}
	return out
}

// The same clean replay, ingested as one batch through Ingest and as uneven
// pieces of one batch through IngestChunks, must give the same outputs at
// the same virtual instants and the same Processed count on both planes:
// the pieces take one queue slot and one service charge, and the staged
// plane's passes stop at piece edges, inside a stagedPass or not. With a
// policy flip mid-replay, the SUnion declines the rest of the batch —
// later pieces included — which runs per-tuple. The engine never writes a
// piece.
func TestEngineIngestChunksMatchesOneBatch(t *testing.T) {
	clean := replayBatch(3*stagedPass+517, 0, 41, 5)
	// A tentative tuple in the last piece only: every piece is staged, and
	// the SUnion holds the tentative tuple in its bucket.
	dirty := append([]tuple.Tuple(nil), clean...)
	dirty[len(dirty)-3].Type = tuple.Tentative
	chunkings := map[string][]int{
		"one-batch":     nil,
		"segments":      {1024, 1024, 1024, 1024, 1024, 1024},
		"uneven":        {700, 1500, 3, stagedPass, 1},
		"inside-a-pass": {1, stagedPass - 1, 0, stagedPass + 1},
	}
	for _, c := range []struct {
		name   string
		batch  []tuple.Tuple
		flipAt int
	}{
		{"clean", clean, 0},
		{"clean/flip", clean, stagedPass / 3},
		{"clean/late-flip", clean, stagedPass / 2},
		{"tentative-tail", dirty, 0},
	} {
		batch, flipAt := c.batch, c.flipAt
		t.Run(c.name, func(t *testing.T) {
			ref := newChunkRun(t, true, flipAt)
			ref.e.Ingest("in", append([]tuple.Tuple(nil), batch...))
			ref.sim.Run()
			if flipAt > 0 && (ref.flipped < 0 || ref.flipped > len(ref.out)/2) {
				t.Fatalf("the policy must flip well before the replay ends (at output %d of %d)", ref.flipped, len(ref.out))
			}
			for _, perTuple := range []bool{false, true} {
				for name, sizes := range chunkings {
					r := newChunkRun(t, perTuple, flipAt)
					in := append([]tuple.Tuple(nil), batch...)
					if sizes == nil {
						r.e.Ingest("in", in)
					} else {
						r.e.IngestChunks("in", split(in, sizes), nil)
					}
					r.sim.Run()
					where := fmt.Sprintf("%s (per-tuple %v)", name, perTuple)
					if r.e.MaxQueueLen() != 1 || r.e.Processed != ref.e.Processed {
						t.Fatalf("%s: queue high-water %d, Processed %d; want 1 and %d", where, r.e.MaxQueueLen(), r.e.Processed, ref.e.Processed)
					}
					// The staged plane reports its outputs a pass at a
					// time, so the flip lands at a pass edge there.
					if len(r.out) != len(ref.out) || flipAt > 0 && (r.flipped < 0 || r.flipped > 2*len(r.out)/3) {
						t.Fatalf("%s: %d outputs, flipped at %d; reference %d", where, len(r.out), r.flipped, len(ref.out))
					}
					for i := range r.out {
						if !tuple.Equal(r.out[i], ref.out[i]) || r.at[i] != ref.at[i] {
							t.Fatalf("%s: output %d is %v at %d, reference %v at %d", where, i, r.out[i], r.at[i], ref.out[i], ref.at[i])
						}
					}
					if !sameBatch(in, batch) {
						t.Fatalf("%s: the engine wrote an ingested piece", where)
					}
				}
			}
		})
	}
}

func sameBatch(a, b []tuple.Tuple) bool {
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

// Pieces without tuples queue nothing.
func TestEngineIngestChunksSkipsEmptyBatch(t *testing.T) {
	sim := runtime.NewVirtual()
	e := New(sim, chainDiagram(t), Config{Capacity: 1000})
	e.IngestChunks("in", nil, nil)
	e.IngestChunks("in", [][]tuple.Tuple{{}, nil}, nil)
	if !e.Idle() || e.MaxQueueLen() != 0 {
		t.Fatal("an empty replay must not be queued")
	}
}

// HoldsTentative scans every piece of a chunked batch: a tentative tuple in
// the last piece only must count, both while the batch waits in the queue
// and while it is in service.
func TestEngineHoldsTentativeInLastChunk(t *testing.T) {
	pieces := func(tentative bool) [][]tuple.Tuple {
		ts := replayBatch(300, 0, 20, 3)
		last := []tuple.Tuple{tuple.NewInsertion(2*sec, 1)}
		if tentative {
			last[0].Type = tuple.Tentative
		}
		return [][]tuple.Tuple{ts[:100], ts[100:], last}
	}
	for _, queued := range []bool{true, false} {
		for _, tentative := range []bool{true, false} {
			sim := runtime.NewVirtual()
			e := New(sim, chainDiagram(t), Config{Capacity: 1000})
			if queued {
				e.Ingest("in", replayBatch(10, 0, 5, 1)) // goes into service first
			}
			e.IngestChunks("in", pieces(tentative), nil)
			if e.QueueLen() != map[bool]int{true: 1, false: 0}[queued] || e.Idle() {
				t.Fatalf("queued=%v: queue length %d, idle %v", queued, e.QueueLen(), e.Idle())
			}
			if got := e.HoldsTentative(); got != tentative {
				t.Fatalf("queued=%v: HoldsTentative = %v with a tentative last piece %v", queued, got, tentative)
			}
			sim.Run()
		}
	}
}

// passSpy is a Filter that records the length of every frame the staged
// plane offers it and counts the tuples it is handed one at a time; it
// takes every frame through the Filter's batch path.
type passSpy struct {
	*operator.Filter
	passes   []int
	perTuple int
}

func (s *passSpy) ProcessBatch(port int, ts []tuple.Tuple) bool {
	s.passes = append(s.passes, len(ts))
	return s.Filter.ProcessBatch(port, ts)
}

func (s *passSpy) Process(port int, t tuple.Tuple) {
	s.perTuple++
	s.Filter.Process(port, t)
}

// The staged plane's passes over a chunked batch stop at every piece edge
// and hold at most stagedPass tuples, and a tentative tuple in the last
// piece changes neither: every batch on an input with a chain is staged. A
// policy flip on the first output makes the SUnion decline every later
// pass, which then runs per-tuple from the SUnion on. Each run's output
// equals the reference plane's.
func TestEngineIngestChunksStagedPasses(t *testing.T) {
	sizes := []int{700, 1500, 3, stagedPass + 5, 1}
	batch := replayBatch(3*stagedPass+517, 0, 41, 5)
	dirty := append([]tuple.Tuple(nil), batch...)
	dirty[len(dirty)-3].Type = tuple.Tentative
	run := func(ts []tuple.Tuple, flip, perTuple bool) (f, g *passSpy, out []tuple.Tuple) {
		f = &passSpy{Filter: operator.NewFilter("f", func(t tuple.Tuple) bool { return t.Field(0)%2 == 1 })}
		g = &passSpy{Filter: operator.NewFilter("g", func(tuple.Tuple) bool { return true })}
		b := diagram.NewBuilder()
		b.Add(f)
		b.Add(operator.NewSUnion("su", operator.SUnionConfig{Ports: 1, BucketSize: 100 * ms, Delay: 2 * sec}))
		b.Add(g)
		b.Add(operator.NewSOutput("out"))
		b.Connect("f", "su", 0)
		b.Connect("su", "g", 0)
		b.Connect("g", "out", 0)
		b.Input("in", "f", 0)
		b.Output("result", "out")
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sim := runtime.NewVirtual()
		e := newPlane(sim, d, perTuple)
		record := func(ts ...tuple.Tuple) {
			out = append(out, ts...)
			if flip {
				e.SetPolicyAll(operator.PolicyProcess)
			}
		}
		e.OnOutputBatch(func(_ string, ts []tuple.Tuple) { record(ts...) })
		e.IngestChunks("in", split(ts, sizes), nil)
		sim.Run()
		return f, g, out
	}
	var want []int
	rest := len(batch)
	for _, n := range append(sizes, 0) {
		if n == 0 {
			n = rest
		}
		rest -= n
		for ; n > 0; n -= stagedPass {
			want = append(want, min(n, stagedPass))
		}
	}
	for _, c := range []struct {
		name  string
		batch []tuple.Tuple
		flip  bool
	}{
		{"clean", batch, false},
		{"tentative-tail", dirty, false},
		{"flip", batch, true},
	} {
		f, g, out := run(c.batch, c.flip, false)
		if fmt.Sprint(f.passes) != fmt.Sprint(want) || f.perTuple != 0 {
			t.Fatalf("%s: staged passes %v and %d per-tuple calls, want %v and none", c.name, f.passes, f.perTuple, want)
		}
		if c.flip && (len(g.passes) != 1 || g.perTuple == 0) {
			t.Fatalf("%s: after the flip the SUnion must decline every pass; the stage after it took %v and %d tuples per-tuple", c.name, g.passes, g.perTuple)
		}
		if !c.flip && (len(g.passes) != len(want) || g.perTuple != 0) {
			t.Fatalf("%s: the stage after the SUnion took %v and %d tuples per-tuple; want every pass staged", c.name, g.passes, g.perTuple)
		}
		_, _, ref := run(c.batch, c.flip, true)
		if len(out) == 0 || !sameBatch(out, ref) {
			t.Fatalf("%s: %d outputs differ from the reference plane's %d", c.name, len(out), len(ref))
		}
	}
}

// The queue's ring slot stays 56 bytes: the chunk pointer fits in the room
// the input binding's pointer leaves of the stream name it replaced, so the
// live path's queue costs what it did before chunked batches.
func TestWorkSlotIs56Bytes(t *testing.T) {
	if s := unsafe.Sizeof(work{}); s != 56 {
		t.Fatalf("a queue slot is %d bytes, want 56", s)
	}
}
