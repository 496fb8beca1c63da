package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// refInputManager runs InputManager.Handle as it was written with two
// paths: a classification pass, a bulk path for the clean batch, and a
// per-tuple loop that copies every live tuple into a fresh frame. The
// differential oracle cannot tell the single-loop Handle from it, because
// both planes share the node; TestInputManagerMatchesReference and
// FuzzInputManagerMatchesReference compare the two directly.
type refInputManager struct{ *InputManager }

func (r refInputManager) Handle(from string, seq uint64, ts []tuple.Tuple) {
	im := r.InputManager
	tuple.CheckNotReturned("InputManager.Handle", ts)
	fromCorr := im.corr != "" && from == im.corr
	if !fromCorr && from != im.live {
		return
	}
	if !im.admit(from, seq) {
		return
	}
	if im.trace != nil {
		var ins, tent, bound, corr int
		for i := range ts {
			switch ts[i].Type {
			case tuple.Insertion:
				ins++
			case tuple.Tentative:
				tent++
			case tuple.Boundary:
				bound++
			default:
				corr++
			}
		}
		im.trace("batch", fmt.Sprintf("%s from %s seq %d: %d stable, %d tentative, %d boundary, %d corrections",
			im.stream, from, seq, ins, tent, bound, corr))
	}
	dedupBelow := uint64(0)
	if seq == 1 {
		dedupBelow = im.lastStableID
	}
	hasCorrection := false
	hasDup := false
	tentBeforeUndo := false
	sawUndo := false
	dirty := false
	insCount := uint64(0)
	lastInsID := uint64(0)
	boundCount := 0
	for i := range ts {
		switch ts[i].Type {
		case tuple.Undo:
			hasCorrection = true
			sawUndo = true
			dirty = true
		case tuple.RecDone:
			hasCorrection = true
			dirty = true
		case tuple.Tentative:
			tentBeforeUndo = true
			dirty = true
		case tuple.Insertion:
			if !hasCorrection && ts[i].ID <= dedupBelow {
				hasDup = true
			}
			insCount++
			lastInsID = ts[i].ID
		case tuple.Boundary:
			if ts[i].Src != 0 {
				dirty = true
			}
			boundCount++
		}
		if sawUndo {
			break
		}
	}
	if tentBeforeUndo && !fromCorr && !im.correcting && im.failKind == FailNone {
		im.declareFailed(FailTentative)
	}
	forwardAsIs := !hasCorrection && !hasDup && !fromCorr && !im.correcting
	if forwardAsIs && !dirty {
		if insCount > 0 {
			im.Received += insCount
			im.lastStableID = lastInsID
			im.seenTentative = false
		}
		if im.logging {
			im.log.appendAll(ts)
		}
		if boundCount > 0 {
			for i := range ts {
				if ts[i].Type == tuple.Boundary {
					im.touchBoundary(ts[i].STime)
				}
			}
		}
		if len(ts) > 0 && im.hooks.forward != nil {
			im.hooks.forward(im.stream, ts)
		}
		if boundCount > 0 && im.failKind != FailNone {
			im.heal()
		}
		return
	}
	var liveOut []tuple.Tuple
	healed := false
	for ti := range ts {
		t := &ts[ti]
		switch {
		case t.IsData():
			if t.Type == tuple.Insertion && t.ID <= dedupBelow {
				im.DroppedDup++
				continue
			}
			im.Received++
			if t.Type == tuple.Tentative {
				im.Tentative++
				im.seenTentative = true
				im.seamless = false
			} else {
				im.lastStableID = t.ID
				im.seenTentative = false
			}
			if im.logging {
				im.log.Append(*t)
			}
			if !forwardAsIs && !fromCorr && !im.correcting {
				liveOut = refAppendLive(liveOut, ts, ti)
			}
		case t.Type == tuple.Boundary:
			if t.Src == 1 {
				if !forwardAsIs && !fromCorr && !im.correcting {
					liveOut = refAppendLive(liveOut, ts, ti)
				}
				im.lastBoundaryArrival = im.clk.Now()
				im.armStallTimer()
				continue
			}
			if im.logging {
				im.log.Append(*t)
			}
			if !forwardAsIs && !fromCorr && !im.correcting {
				liveOut = refAppendLive(liveOut, ts, ti)
			}
			im.touchBoundary(t.STime)
			if !fromCorr && !im.correcting && im.failKind != FailNone {
				healed = true
			}
		case t.Type == tuple.Undo:
			if im.trace != nil {
				im.trace("undo", fmt.Sprintf("%s from %s: id %d (seamless %v)", im.stream, from, t.ID, im.seamless))
			}
			if !fromCorr {
				if im.seamless {
					im.seamless = false
				} else {
					im.correcting = true
				}
			}
			im.log.Undo(t.ID)
			im.seenTentative = false
		case t.Type == tuple.RecDone:
			if im.trace != nil {
				im.trace("rec-done", fmt.Sprintf("%s from %s", im.stream, from))
			}
			im.log.stripTentative()
			if fromCorr {
				im.live = from
				im.corr = ""
			}
			im.correcting = false
			if im.failKind != FailNone {
				healed = true
			}
		}
	}
	if forwardAsIs {
		liveOut = ts
	}
	if len(liveOut) > 0 && im.hooks.forward != nil {
		im.hooks.forward(im.stream, liveOut)
	}
	if healed {
		im.heal()
	}
}

// refAppendLive appends ts[i] to the live batch, allocating it on the first
// append with room for the rest of ts.
func refAppendLive(live, ts []tuple.Tuple, i int) []tuple.Tuple {
	if live == nil {
		live = make([]tuple.Tuple, 0, len(ts)-i)
	}
	return append(live, ts[i])
}

// intner draws the next choice of a generated script: a math/rand source
// for the seeded table, the fuzzer's bytes for the fuzz target.
type intner interface{ Intn(n int) int }

// fuzzBytes reads one byte per choice and reads 0 once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// imSide is one of the two managers under comparison, with everything its
// hooks saw in order.
type imSide struct {
	clk    *runtime.VirtualClock
	im     *InputManager
	handle func(from string, seq uint64, ts []tuple.Tuple)
	events []string
	frames [][]tuple.Tuple
	// in is the batch being handled; aliasing records a forward that
	// starts inside it but after its first tuple.
	in       []tuple.Tuple
	aliasing bool
}

// imReactions are the node controller's synchronous reactions a hook may
// trigger: a failure takes a checkpoint, which restarts the arrival log; a
// heal may be granted reconciliation at once, which takes the log for the
// replay and stops logging.
type imReactions struct {
	restartLogOnFailure bool
	takeLogOnHeal       bool
}

func newIMSide(ref bool, react imReactions) *imSide {
	s := &imSide{clk: runtime.NewVirtual()}
	s.im = newInputManager(s.clk, "s", 100*ms, inputHooks{
		onFailed: func(_ string, k FailKind) {
			s.events = append(s.events, fmt.Sprintf("failed %v", k))
			if react.restartLogOnFailure {
				s.im.StartLog()
			}
		},
		onHealed: func(string) {
			s.events = append(s.events, "healed")
			if react.takeLogOnHeal {
				s.events = append(s.events, fmt.Sprintf("replay %v", flatten(s.im.TakeLog())))
				s.im.StopLog()
			}
		},
		onBroken: func(_, from string) { s.events = append(s.events, "broken "+from) },
		forward: func(_ string, ts []tuple.Tuple) {
			s.events = append(s.events, fmt.Sprintf("forward %d", len(ts)))
			s.frames = append(s.frames, append([]tuple.Tuple(nil), ts...))
			if len(ts) > 0 && len(s.in) > 0 && &ts[0] != &s.in[0] {
				start := uintptr(unsafe.Pointer(&s.in[0]))
				end := start + uintptr(cap(s.in))*unsafe.Sizeof(ts[0])
				if p := uintptr(unsafe.Pointer(&ts[0])); p > start && p < end {
					s.aliasing = true
				}
			}
		},
	}, nil)
	s.im.trace = func(event, detail string) { s.events = append(s.events, event+": "+detail) }
	s.handle = s.im.Handle
	if ref {
		s.handle = refInputManager{s.im}.Handle
	}
	return s
}

func flatten(chunks [][]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// imState is everything of a manager a batch can change, but the arrival
// log's tuples (logged).
type imState struct {
	Live, Corr                          string
	Correcting, Seamless, SeenTentative bool
	LastStableID                        uint64
	LastBoundaryArrival                 int64
	LastBoundarySTime                   int64
	FailKind                            FailKind
	Logging, StallArmed                 bool
	Conns                               map[string]connSeq
	LogLen                              int
	Received, Tentative, DroppedDup     uint64
}

func (s *imSide) state() imState {
	im := s.im
	st := imState{
		Live: im.live, Corr: im.corr, Correcting: im.correcting, Seamless: im.seamless,
		SeenTentative: im.seenTentative, LastStableID: im.lastStableID,
		LastBoundaryArrival: im.lastBoundaryArrival, LastBoundarySTime: im.lastBoundarySTime,
		FailKind: im.failKind, Logging: im.logging, StallArmed: im.stallTimer != nil,
		Conns:    map[string]connSeq{},
		Received: im.Received, Tentative: im.Tentative, DroppedDup: im.DroppedDup,
	}
	for k, c := range im.conns {
		st.Conns[k] = *c
	}
	st.LogLen = im.log.Len()
	return st
}

// logged returns the arrival log's tuples.
func (s *imSide) logged() []tuple.Tuple {
	var out []tuple.Tuple
	s.im.log.Chunks(func(ts []tuple.Tuple) { out = append(out, ts...) })
	return out
}

// imMix weights the tuple types a generated batch draws, one weight each
// for a fresh insertion, an insertion at or below the stable watermark, a
// tentative tuple, a stable boundary, a tentative (Src 1) boundary, an
// anchored UNDO, an unanchored UNDO and a REC_DONE.
type imMix [8]int

const (
	mixIns = iota
	mixDup
	mixTent
	mixBound
	mixTentBound
	mixUndo
	mixUndoFree
	mixRecDone
)

// imScript drives both managers through the same generated sequence of
// batches, connection changes, log restarts and clock steps, and fails at
// the first difference in forwarded frames, hook calls or state.
func imScript(t *testing.T, r intner, steps int, mix imMix, react imReactions) {
	t.Helper()
	got, ref := newIMSide(false, react), newIMSide(true, react)
	sides := []*imSide{got, ref}
	each := func(fn func(s *imSide)) {
		for _, s := range sides {
			fn(s)
		}
	}
	seamless := r.Intn(2) == 0
	each(func(s *imSide) { s.im.SetConnections("up", "", seamless) })
	seqs := map[string]uint64{}
	id, stime := uint64(0), int64(0)
	total := 0
	for _, w := range mix {
		total += w
	}
	pick := func() int {
		v := r.Intn(total)
		for k, w := range mix {
			if v < w {
				return k
			}
			v -= w
		}
		return 0
	}
	for step := 0; step < steps; step++ {
		what := ""
		var batch []tuple.Tuple // the step's batch, printed on a failure
		switch r.Intn(16) {
		case 0: // connections: one live upstream, or a dual connection
			live, corr, seamless := "up", "", r.Intn(2) == 0
			switch r.Intn(4) {
			case 0:
				corr = "corr"
				seamless = false
			case 1:
				live = "corr"
			}
			what = fmt.Sprintf("connect %s/%s seamless %v", live, corr, seamless)
			each(func(s *imSide) { s.im.SetConnections(live, corr, seamless) })
		case 1:
			switch r.Intn(4) {
			case 0:
				what = "start log"
				each(func(s *imSide) { s.im.StartLog() })
			case 1:
				what = "stop log"
				each(func(s *imSide) { s.im.StopLog() })
			case 2:
				what = "take log"
				each(func(s *imSide) { s.events = append(s.events, fmt.Sprintf("replay %v", flatten(s.im.TakeLog()))) })
			default:
				what = "expect fresh"
				each(func(s *imSide) { s.im.ExpectFresh("up") })
				seqs["up"] = 0
			}
		case 2:
			d := int64(r.Intn(4)) * 40 * ms
			what = fmt.Sprintf("advance %d", d)
			each(func(s *imSide) { s.clk.RunFor(d) })
		default:
			from := "up"
			switch r.Intn(8) {
			case 0:
				from = "corr"
			case 1:
				from = "ghost"
			}
			seqs[from]++
			seq := seqs[from]
			switch r.Intn(10) {
			case 0: // a fresh subscription's replay
				seq = 1
				seqs[from] = 1
				id -= min(id, uint64(r.Intn(6)))
			case 1: // a lost message
				seq++
			}
			n := r.Intn(12)
			if r.Intn(8) == 0 {
				n += obSegSize - 8 + r.Intn(16)
			}
			ts := make([]tuple.Tuple, 0, n)
			for len(ts) < n {
				stime += int64(r.Intn(3)) * 10 * ms
				switch pick() {
				case mixIns:
					id++
					ts = append(ts, tuple.Tuple{Type: tuple.Insertion, ID: id, STime: stime})
				case mixDup:
					ts = append(ts, tuple.Tuple{Type: tuple.Insertion, ID: id - min(id, uint64(r.Intn(4))), STime: stime})
				case mixTent:
					ts = append(ts, tuple.Tuple{Type: tuple.Tentative, ID: id + 1 + uint64(r.Intn(3)), STime: stime})
				case mixBound:
					ts = append(ts, tuple.NewBoundary(stime))
				case mixTentBound:
					b := tuple.NewBoundary(stime)
					b.Src = 1
					ts = append(ts, b)
				case mixUndo:
					ts = append(ts, tuple.NewUndo(id-min(id, uint64(r.Intn(6)))))
				case mixUndoFree:
					ts = append(ts, tuple.NewUndo(id+100))
				case mixRecDone:
					ts = append(ts, tuple.NewRecDone(stime))
				}
			}
			what, batch = fmt.Sprintf("batch from %s seq %d", from, seq), ts
			each(func(s *imSide) {
				in := append([]tuple.Tuple(nil), ts...)
				s.in = in
				s.handle(from, seq, in)
				s.in = nil
				if !sameTuples(in, ts) {
					t.Fatalf("step %d (%s %v): Handle wrote its input", step, what, batch)
				}
			})
		}
		if got.aliasing {
			t.Fatalf("step %d (%s %v): forwarded a frame starting inside the batch after its first tuple", step, what, batch)
		}
		if !reflect.DeepEqual(got.events, ref.events) {
			t.Fatalf("step %d (%s %v): hook calls\n got %q\nwant %q", step, what, batch, got.events, ref.events)
		}
		if !slices.EqualFunc(got.frames, ref.frames, sameTuples) {
			t.Fatalf("step %d (%s %v): forwarded frames\n got %v\nwant %v", step, what, batch, got.frames, ref.frames)
		}
		if g, w := got.state(), ref.state(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (%s %v): state\n got %+v\nwant %+v", step, what, batch, g, w)
		}
		if g, w := got.logged(), ref.logged(); !sameTuples(g, w) {
			t.Fatalf("step %d (%s %v): arrival log\n got %v\nwant %v", step, what, batch, g, w)
		}
		checkTupleLog(t, fmt.Sprintf("step %d", step), &got.im.log)
		each(func(s *imSide) { s.events, s.frames = s.events[:0], s.frames[:0] })
	}
}

// imMixes are the traffic shapes the table runs: the clean stream, seq-1
// replays overlapping the stable watermark, tentative runs with tentative
// boundaries, correction sequences, and everything at once.
var imMixes = []struct {
	name string
	mix  imMix
}{
	{"clean", imMix{mixIns: 8, mixBound: 2}},
	{"replays", imMix{mixIns: 6, mixDup: 4, mixBound: 2}},
	{"tentative", imMix{mixIns: 4, mixTent: 6, mixBound: 1, mixTentBound: 2}},
	{"corrections", imMix{mixIns: 6, mixDup: 1, mixTent: 3, mixBound: 2, mixTentBound: 1, mixUndo: 1, mixUndoFree: 1, mixRecDone: 1}},
	{"mixed", imMix{1, 1, 1, 1, 1, 1, 1, 1}},
}

// TestInputManagerMatchesReference holds the single-loop Handle to
// refInputManager on seeded scripts over every traffic shape, with and
// without the controller's synchronous reactions to failures and heals.
func TestInputManagerMatchesReference(t *testing.T) {
	for _, m := range imMixes {
		for seed := int64(1); seed <= 24; seed++ {
			react := imReactions{restartLogOnFailure: seed%2 == 0, takeLogOnHeal: seed%4 == 3}
			t.Run(fmt.Sprintf("%s/%d", m.name, seed), func(t *testing.T) {
				imScript(t, rand.New(rand.NewSource(seed)), 120, m.mix, react)
			})
		}
	}
}

// FuzzInputManagerMatchesReference is TestInputManagerMatchesReference on
// scripts, traffic shapes and reactions the fuzzer draws.
func FuzzInputManagerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x03\x05\x00\x07\x01\x02\x04\x06\x03\x05\x0f\x0e\x0d\x0c\x0b\x0a\x09\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		var mix imMix
		for k := range mix {
			mix[k] = r.Intn(4)
		}
		mix[mixIns]++
		react := imReactions{restartLogOnFailure: r.Intn(2) == 0, takeLogOnHeal: r.Intn(2) == 0}
		imScript(t, &r, 1+len(data)/4, mix, react)
	})
}

// BenchmarkInputManagerCleanBatch runs the dominant batch — 1 023 fresh
// stable insertions and a stable boundary — through Handle and through
// refInputManager's bulk path, with the arrival log off and on. The two
// should cost about the same per tuple.
func BenchmarkInputManagerCleanBatch(b *testing.B) {
	const n = 1024
	frames := make([][]tuple.Tuple, 64)
	id := uint64(1)
	for f := range frames {
		ts := make([]tuple.Tuple, n)
		for i := range n - 1 {
			ts[i] = tuple.Tuple{Type: tuple.Insertion, ID: id, STime: int64(id)}.WithData(int64(id))
			id++
		}
		ts[n-1] = tuple.Tuple{Type: tuple.Boundary, STime: int64(id)}
		frames[f] = ts
	}
	for _, logging := range []bool{false, true} {
		for _, ref := range []bool{false, true} {
			name := fmt.Sprintf("log=%v/handle", logging)
			if ref {
				name = fmt.Sprintf("log=%v/reference", logging)
			}
			b.Run(name, func(b *testing.B) {
				var segs tuple.LoanPool
				im := newInputManager(runtime.NewVirtual(), "s", 200*runtime.Millisecond,
					inputHooks{forward: func(string, []tuple.Tuple) {}}, &segs)
				im.SetConnections("up", "", false)
				handle := im.Handle
				if ref {
					handle = refInputManager{im}.Handle
				}
				b.SetBytes(n * int64(unsafe.Sizeof(tuple.Tuple{})))
				b.ResetTimer()
				for k := range b.N {
					if logging && k%len(frames) == 0 {
						im.StartLog() // a fresh log every 64 batches: the pool refills it
					}
					handle("up", uint64(k+1), frames[k%len(frames)])
				}
				if got := im.Received; got != uint64(b.N)*(n-1) {
					b.Fatalf("received %d tuples, want %d", got, uint64(b.N)*(n-1))
				}
			})
		}
	}
}
