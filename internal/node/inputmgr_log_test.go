package node

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// refArrivalLog is the InputManager's arrival log as a plain slice, patched
// as the manager patched its doubling slice before the log moved onto
// TupleLog: data tuples and stable boundaries are appended, an UNDO applies
// tuple.ApplyUndo, and a REC_DONE drops the tentative tuples.
type refArrivalLog []tuple.Tuple

func (l *refArrivalLog) handle(ts []tuple.Tuple) {
	for _, t := range ts {
		switch {
		case t.IsData(), t.Type == tuple.Boundary && t.Src == 0:
			*l = append(*l, t)
		case t.Type == tuple.Undo:
			*l = tuple.ApplyUndo(*l, t.ID)
		case t.Type == tuple.RecDone:
			kept := (*l)[:0]
			for _, k := range *l {
				if k.Type != tuple.Tentative {
					kept = append(kept, k)
				}
			}
			*l = kept
		}
	}
}

// TestInputManagerLogMatchesReference drives random Handle sequences
// through an InputManager — clean batches, tentative runs, UNDOs with and
// without an anchor followed by corrections, REC_DONEs, log restarts — and
// after every batch holds its log to refArrivalLog and to TupleLog's run
// invariants. Batch sizes and undo anchors are drawn to land on and beside
// 1 024-tuple segment edges, and the logs span several segments.
func TestInputManagerLogMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			im := newInputManager(runtime.NewVirtual(), "s", 0, inputHooks{}, nil)
			im.SetConnections("up", "", true)
			im.StartLog()
			var ref refArrivalLog
			seq, id, stime := uint64(0), uint64(0), int64(0)
			// size picks a batch length: any, or one that ends the log
			// on, just before or just after a segment edge.
			size := func() int {
				toEdge := obSegSize - len(ref)%obSegSize
				switch rng.Intn(4) {
				case 0:
					return 1 + rng.Intn(1500)
				case 1:
					return toEdge
				case 2:
					return max(1, toEdge-1)
				}
				return toEdge + 1
			}
			// anchor picks the id of a logged stable insertion, preferring
			// one on either side of a segment edge; 0 when there is none.
			anchor := func() uint64 {
				if len(ref) == 0 {
					return 0
				}
				i := rng.Intn(len(ref))
				if e := len(ref) / obSegSize; e > 0 && rng.Intn(2) == 0 {
					i = min(len(ref)-1, obSegSize*(1+rng.Intn(e))-1+rng.Intn(2))
				}
				for ; i >= 0; i-- {
					if ref[i].Type == tuple.Insertion {
						return ref[i].ID
					}
				}
				return 0
			}
			stable := func(ts []tuple.Tuple, n int) []tuple.Tuple {
				for range n {
					id++
					stime++
					if rng.Intn(16) == 0 {
						ts = append(ts, tuple.NewBoundary(stime))
					}
					ts = append(ts, tuple.Tuple{Type: tuple.Insertion, ID: id, STime: stime}.WithData(int64(id)))
				}
				return ts
			}
			for step := range 80 {
				var batch []tuple.Tuple
				var what string
				switch k := rng.Intn(20); {
				case k < 8:
					what = "clean"
					batch = stable(nil, size())
				case k < 12:
					what = "tentative"
					tid := id // provisional ids follow the last stable one
					for range size() {
						tid++
						stime++
						if rng.Intn(16) == 0 {
							tb := tuple.NewBoundary(stime)
							tb.Src = 1
							batch = append(batch, tb)
						}
						batch = append(batch, tuple.Tuple{Type: tuple.Tentative, ID: tid, STime: stime}.WithData(-int64(tid)))
					}
				case k < 15:
					what = "anchored undo"
					a := anchor()
					batch = append(batch, tuple.NewUndo(a))
					if a > 0 {
						id = a
					}
					batch = stable(batch, rng.Intn(1200))
				case k < 17:
					// No insertion carries a fresh id: strip the
					// tentative tuples, keep everything else.
					what = "unanchored undo"
					batch = stable([]tuple.Tuple{tuple.NewUndo(id + 1 + uint64(rng.Intn(8)))}, rng.Intn(300))
				case k < 19:
					what = "rec-done"
					batch = stable(nil, rng.Intn(200))
					batch = append(batch, tuple.NewRecDone(stime))
				default:
					what = "restart"
					im.StartLog()
					ref = ref[:0]
					continue
				}
				seq++
				im.Handle("up", seq, batch)
				ref.handle(batch)
				name := fmt.Sprintf("step %d (%s)", step, what)
				checkTupleLog(t, name, &im.log)
				var got []tuple.Tuple
				im.log.Chunks(func(ts []tuple.Tuple) { got = append(got, ts...) })
				if !sameTuples(got, ref) {
					t.Fatalf("%s: log of %d tuples differs from the reference's %d", name, len(got), len(ref))
				}
			}
			n := im.LogLen()
			var got []tuple.Tuple
			for _, ts := range im.TakeLog() {
				if len(ts) == 0 {
					t.Fatal("TakeLog handed over an empty run")
				}
				got = append(got, ts...)
			}
			if !sameTuples(got, ref) || n != len(ref) {
				t.Fatalf("TakeLog: %d tuples (LogLen %d), reference %d", len(got), n, len(ref))
			}
			if im.LogLen() != 0 {
				t.Fatalf("TakeLog left %d tuples behind", im.LogLen())
			}
		})
	}
}

// TestTupleLogTakeRunsHandsOverWholeSegments: every piece takeRuns hands
// over is a whole segment holding its run at its start and zero past it,
// also after whole head segments were dropped, and the log is empty
// afterwards.
func TestTupleLogTakeRunsHandsOverWholeSegments(t *testing.T) {
	for _, drop := range []int{0, obSegSize} {
		l := NewTupleLog(new(tuple.LoanPool))
		for i := 1; i <= 2*obSegSize+300; i++ {
			l.Append(ins(uint64(i), int64(i)))
		}
		l.dropHead(drop)
		next := uint64(drop + 1)
		for i, seg := range l.takeRuns() {
			if cap(seg) != obSegSize || len(seg) == 0 {
				t.Fatalf("drop %d: piece %d has len %d cap %d, want a whole segment holding a run", drop, i, len(seg), cap(seg))
			}
			for j, tp := range seg[:cap(seg)] {
				switch {
				case j < len(seg) && tp.ID != next:
					t.Fatalf("drop %d: piece %d slot %d holds id %d, want %d", drop, i, j, tp.ID, next)
				case j < len(seg):
					next++
				case tp != (tuple.Tuple{}):
					t.Fatalf("drop %d: piece %d slot %d past its run holds %v", drop, i, j, tp)
				}
			}
		}
		if next != 2*obSegSize+301 || l.Len() != 0 || len(l.runs) != 0 {
			t.Fatalf("drop %d: handed over up to id %d, log left with %d tuples in %d runs", drop, next-1, l.Len(), len(l.runs))
		}
	}
}

// TestTupleLogStripAllocatesNothing pins that an UNDO without an anchor
// strips a staged-only log's tentative tuples in place: appending them
// again reuses the segments the strip returned to the pool, and the strip
// itself allocates nothing.
func TestTupleLogStripAllocatesNothing(t *testing.T) {
	l := NewTupleLog(new(tuple.LoanPool))
	for i := uint64(1); i <= 3*obSegSize/2; i++ {
		l.Append(tuple.Tuple{Type: tuple.Insertion, ID: i, STime: int64(i)})
	}
	base := uint64(l.Len())
	// mixed appends two segments' worth of tuples, every third one stable,
	// and strips the tentative ones.
	mixed := func() {
		for i := uint64(0); i < 2*obSegSize; i++ {
			typ := tuple.Insertion
			if i%3 != 0 {
				typ = tuple.Tentative
			}
			l.Append(tuple.Tuple{Type: typ, ID: base + i + 1, STime: int64(i)})
		}
		l.Undo(1 << 40)
	}
	epoch := func() {
		mixed()
		l.Undo(base) // back to the first segment and a half
	}
	// A loanpoison build never lends a returned segment again.
	if a := testing.AllocsPerRun(20, epoch); a != 0 && !tuple.Poisoning() {
		t.Fatalf("an append-and-strip epoch allocates %.2f times, want 0", a)
	}
	mixed()
	var got []tuple.Tuple
	l.Chunks(func(ts []tuple.Tuple) { got = append(got, ts...) })
	for i := range got {
		want := i + 1
		if uint64(i) >= base {
			want = int(base) + 3*(i-int(base)) + 1
		}
		if got[i].Type != tuple.Insertion || got[i].ID != uint64(want) {
			t.Fatalf("tuple %d after the strip: %v, want stable id %d", i, got[i], want)
		}
	}
	if want := int(base) + (2*obSegSize+2)/3; len(got) != want || l.Len() != want {
		t.Fatalf("%d tuples (Len %d) after the strip, want %d", len(got), l.Len(), want)
	}
	checkTupleLog(t, "after the strip", &l)
}

// BenchmarkInputManagerEpoch runs one failure epoch of 2^17 arriving tuples
// per op through a fresh InputManager, as reconciliation sees it: 2^16
// stable tuples, a failure of 2^14 tentative ones, then the upstream's
// correction sequence — an anchored UNDO and 2^15 stable corrections — on
// the correcting connection, interleaved with 2^14 tentative tuples from a
// replica on the live connection, a REC_DONE that strips those, and
// TakeLog. Batches are 64 tuples. B/op is the epoch's allocation;
// retained_B/tuple is the heap the taken log keeps per logged tuple.
func BenchmarkInputManagerEpoch(b *testing.B) {
	const batch = 64
	frames := func(typ tuple.Type, first uint64, n int) [][]tuple.Tuple {
		var out [][]tuple.Tuple
		for k := 0; k < n; k += batch {
			ts := make([]tuple.Tuple, batch)
			for i := range ts {
				id := first + uint64(k+i)
				ts[i] = tuple.Tuple{Type: typ, ID: id, STime: int64(id)}.WithData(int64(id))
			}
			out = append(out, ts)
		}
		return out
	}
	const stable, tentative, corrections = 1 << 16, 1 << 14, 1 << 15
	clean := frames(tuple.Insertion, 1, stable)
	failed := frames(tuple.Tentative, stable+1, tentative)
	fixes := frames(tuple.Insertion, stable+1, corrections)
	replica := frames(tuple.Tentative, stable+1, tentative)
	undo := []tuple.Tuple{tuple.NewUndo(stable)}
	recDone := []tuple.Tuple{tuple.NewRecDone(0)}
	var logged int
	epoch := func() [][]tuple.Tuple {
		im := newInputManager(runtime.NewVirtual(), "s", 0, inputHooks{}, nil)
		im.SetConnections("up", "", false)
		im.StartLog()
		seq := map[string]uint64{}
		handle := func(from string, ts []tuple.Tuple) {
			seq[from]++
			im.Handle(from, seq[from], ts)
		}
		for _, ts := range clean {
			handle("up", ts)
		}
		for _, ts := range failed {
			handle("up", ts)
		}
		im.SetConnections("fresh", "up", false)
		handle("up", undo)
		for i, ts := range fixes {
			handle("up", ts)
			if i%2 == 0 {
				handle("fresh", replica[i/2])
			}
		}
		handle("up", recDone)
		logged = im.LogLen()
		return im.TakeLog()
	}
	if epoch(); logged != stable+corrections {
		b.Fatalf("the epoch logged %d tuples, want %d", logged, stable+corrections)
	}
	var perTuple float64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		b.StartTimer()
		log := epoch()
		b.StopTimer()
		goruntime.GC()
		goruntime.ReadMemStats(&after)
		perTuple = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(logged)
		goruntime.KeepAlive(log)
		b.StartTimer()
	}
	b.ReportMetric(perTuple, "retained_B/tuple")
}
