package operator

import (
	"fmt"
	"math/rand"
	"testing"

	"borealis/internal/tuple"
)

// The equivalence wall: the ring-window SJoin and Aggregate against the
// reference models of stateful_ref_test.go on generated streams that obey
// the contract of an SUnion's output — data stimes never decrease, and no
// data tuple falls below an earlier boundary. Every stream is fed three
// ways (per tuple, as ProcessBatch frames cut at random points, and across a
// Checkpoint/Restore), and the emission sequences must be identical.

// keyDist selects how a generated stream draws its join keys / groups.
type keyDist int

const (
	keysUnique keyDist = iota // every tuple its own key
	keysHot                   // one key for the whole window
	keysZipf                  // a few hot keys over a long tail
	keysShort                 // payloads too short for the key field → key 0
	numKeyDists
)

func (d keyDist) String() string {
	return [...]string{"unique", "hot", "zipf", "short"}[d]
}

type streamConfig struct {
	tuples    int
	keys      keyDist
	leftShare float64 // share of data tuples with Src 0 (the join's left side)
	startAt   int64   // first stime; negative exercises the floor of the slide grid
}

// genStream draws one SUnion-contract stream: data tuples two stime units
// apart on average (so a window of W stime units holds about W/2 tuples per
// side pair), a stable/tentative mix, stable and tentative boundaries that
// the following data respects, an occasional regressing boundary, a long
// quiet jump now and then, and UNDO / REC_DONE markers.
func genStream(r *rand.Rand, c streamConfig) []tuple.Tuple {
	zipf := rand.NewZipf(r, 1.3, 1, 1<<20)
	tentativeShare := 0.0
	if r.Intn(2) == 0 {
		tentativeShare = 0.15
	}
	ts := make([]tuple.Tuple, 0, c.tuples)
	cur := c.startAt
	for i := 0; len(ts) < c.tuples; i++ {
		switch u := r.Float64(); {
		case u < 0.04:
			b := tuple.NewBoundary(cur + r.Int63n(3))
			cur = b.STime
			ts = append(ts, b)
		case u < 0.05:
			b := tuple.NewBoundary(cur + r.Int63n(3))
			b.Src = 1 // tentative boundary (footnote 5)
			cur = b.STime
			ts = append(ts, b)
		case u < 0.055:
			ts = append(ts, tuple.NewBoundary(cur-1-r.Int63n(50)))
		case u < 0.06:
			ts = append(ts, tuple.NewUndo(uint64(r.Intn(100))))
		case u < 0.065:
			ts = append(ts, tuple.NewRecDone(cur))
		case u < 0.067:
			cur += 20000 // quiet gap: everything buffered expires at once
		default:
			cur += r.Int63n(5)
			var key int64
			switch c.keys {
			case keysUnique, keysShort:
				key = int64(i)
			case keysHot:
				key = 7
			case keysZipf:
				key = int64(zipf.Uint64())
			}
			// Payload [value, key]: operators read the key from field 1,
			// which a one-element payload does not have.
			data := []int64{r.Int63n(1000) - 500, key}
			if c.keys == keysShort && r.Intn(3) > 0 {
				data = data[:r.Intn(2)]
			}
			t := tuple.NewInsertion(cur, data...)
			if r.Float64() < tentativeShare {
				t.Type = tuple.Tentative
			}
			if r.Float64() >= c.leftShare {
				t.Src = 1 + int32(r.Intn(2))
			}
			ts = append(ts, t)
		}
	}
	return ts
}

// pair is a rebuilt operator and its reference model, each on its own
// collector; sizes reads the state-size probe the two must agree on.
type pair struct {
	name     string
	got, ref Operator
	gotOut   *loanCollector
	refOut   *collector
	sizes    func() (got, ref int)
}

func joinPair(window int64) *pair {
	cfg := JoinConfig{Window: window, LeftKey: 1, RightKey: 1}
	got, ref := NewSJoin("j", cfg), newRefSJoin("j", cfg)
	p := &pair{name: fmt.Sprintf("join window=%d", window), got: got, ref: ref}
	p.sizes = func() (int, int) { return got.StateSize(), ref.StateSize() }
	return p.attach()
}

func aggregatePair(cfg AggregateConfig) *pair {
	got, ref := NewAggregate("a", cfg), newRefAggregate("a", cfg)
	p := &pair{name: fmt.Sprintf("aggregate %+v", cfg), got: got, ref: ref}
	p.sizes = func() (int, int) { return got.OpenWindows(), ref.OpenWindows() }
	return p.attach()
}

func (p *pair) attach() *pair {
	p.gotOut = attachLoan(p.got, nil, true)
	p.refOut = attach(p.ref, nil)
	return p
}

// compare checks the emissions since the last call, and the state sizes,
// then forgets the emissions.
func (p *pair) compare(t *testing.T, at string) {
	t.Helper()
	if g, r := p.sizes(); g != r {
		t.Fatalf("%s, %s: state size %d, reference %d", p.name, at, g, r)
	}
	got, want := p.gotOut.out, p.refOut.out
	if len(got) != len(want) {
		t.Fatalf("%s, %s: %d emissions, reference %d", p.name, at, len(got), len(want))
	}
	for i := range got {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID || got[i].Src != want[i].Src ||
			!tuple.SameValue(got[i], want[i]) {
			t.Fatalf("%s, %s: emission %d is %+v, reference %+v", p.name, at, i, got[i], want[i])
		}
	}
	p.gotOut.out, p.gotOut.loans, p.refOut.out = p.gotOut.out[:0], nil, p.refOut.out[:0]
}

// feedPerTuple runs ts through both operators one Process call at a time,
// comparing emissions and state size after every tuple.
func (p *pair) feedPerTuple(t *testing.T, ts []tuple.Tuple, from int) {
	t.Helper()
	for i := range ts {
		p.got.Process(0, ts[i])
		p.ref.Process(0, ts[i])
		p.compare(t, fmt.Sprintf("after tuple %d %+v", from+i, ts[i]))
	}
}

// feedFrames cuts ts into frames at random points: the rebuilt operator
// takes each as one ProcessBatch call (which must accept, stage everything
// into one loaned frame, and leave its input untouched), the reference
// takes it tuple by tuple.
func (p *pair) feedFrames(t *testing.T, r *rand.Rand, ts []tuple.Tuple) {
	t.Helper()
	for from := 0; from < len(ts); {
		n := 1 + r.Intn(64)
		if r.Intn(8) == 0 {
			n = 1 + r.Intn(600)
		}
		frame := ts[from:min(from+n, len(ts))]
		before := cloneBatch(frame)
		if !p.got.(BatchProcessor).ProcessBatch(0, frame) {
			t.Fatalf("%s: ProcessBatch declined a frame", p.name)
		}
		for i := range frame {
			if frame[i].Type != before[i].Type || frame[i].Src != before[i].Src ||
				frame[i].ID != before[i].ID || !tuple.SameValue(frame[i], before[i]) {
				t.Fatalf("%s: ProcessBatch wrote input slot %d", p.name, from+i)
			}
			p.ref.Process(0, frame[i])
		}
		if len(p.gotOut.loans) > 1 {
			t.Fatalf("%s: one ProcessBatch made %d emissions, want one loaned frame", p.name, len(p.gotOut.loans))
		}
		p.compare(t, fmt.Sprintf("after frame [%d,%d)", from, from+len(frame)))
		from += len(frame)
	}
}

// feedAcrossRestore checkpoints both operators at a random point, runs on,
// restores each from its own snapshot and re-feeds the suffix: the redo
// must match the reference's redo tuple for tuple.
func (p *pair) feedAcrossRestore(t *testing.T, r *rand.Rand, ts []tuple.Tuple) {
	t.Helper()
	cut := r.Intn(len(ts))
	on := cut + r.Intn(len(ts)-cut+1)
	p.feedPerTuple(t, ts[:cut], 0)
	gotSnap, refSnap := p.got.Checkpoint(), p.ref.Checkpoint()
	p.feedPerTuple(t, ts[cut:on], cut)
	p.got.Restore(gotSnap)
	p.ref.Restore(refSnap)
	p.compare(t, "after restore")
	p.feedPerTuple(t, ts[cut:], cut)
	// The snapshot must have stayed independent of the operator.
	p.got.Restore(gotSnap)
	p.ref.Restore(refSnap)
	p.compare(t, "after second restore")
}

// runWall feeds count generated streams to fresh pairs (mk builds one for
// the given stream number), each stream in all three ways.
func runWall(t *testing.T, seed int64, count int, c streamConfig, mk func(stream int) *pair) {
	t.Helper()
	for s := 0; s < count; s++ {
		r := rand.New(rand.NewSource(seed + int64(s)))
		ts := genStream(r, c)
		mk(s).feedPerTuple(t, ts, 0)
		mk(s).feedFrames(t, r, ts)
		mk(s).feedAcrossRestore(t, r, ts)
	}
}

func TestSJoinMatchesReferenceModel(t *testing.T) {
	// Windows in stime units, sized to hold about 1, 100, 600 and 5 000
	// tuples at two stime units per tuple. The hot-key streams of the two
	// large windows are mostly one-sided so the output (the product of the
	// sides) stays small while the full side still fills its ring.
	streams := 0
	for _, w := range []struct {
		window         int64
		tuples, count  int
		hotCount       int
		hotLeftShare   float64
		negativeStarts bool
	}{
		{window: 2, tuples: 150, count: 160, hotCount: 160, hotLeftShare: 0.5, negativeStarts: true},
		{window: 200, tuples: 400, count: 80, hotCount: 40, hotLeftShare: 0.5},
		{window: 1200, tuples: 1800, count: 8, hotCount: 2, hotLeftShare: 0.9},
		{window: 10000, tuples: 12000, count: 1, hotCount: 1, hotLeftShare: 0.97},
	} {
		for d := keyDist(0); d < numKeyDists; d++ {
			c := streamConfig{tuples: w.tuples, keys: d, leftShare: 0.5}
			count := w.count
			if d == keysHot {
				c.leftShare, count = w.hotLeftShare, w.hotCount
			}
			if w.negativeStarts {
				c.startAt = -100
			}
			t.Run(fmt.Sprintf("window=%d/%s", w.window, d), func(t *testing.T) {
				runWall(t, w.window*100+int64(d), count, c, func(int) *pair { return joinPair(w.window) })
			})
			streams += count
		}
	}
	if streams < 900 {
		t.Fatalf("wall too thin: %d streams", streams)
	}
}

func TestAggregateMatchesReferenceModel(t *testing.T) {
	streams := 0
	for _, w := range []struct {
		name        string
		size, slide int64
	}{
		{"tumbling1", 1, 0},
		{"tumbling40", 40, 40},
		{"sliding40by10", 40, 10},
		{"sliding30by1", 30, 1},
		{"sliding250by60", 250, 60}, // slide does not divide size
		{"hopping10by25", 10, 25},   // gaps between windows
	} {
		for _, group := range []int{-1, 1} {
			for d := keyDist(0); d < numKeyDists; d++ {
				if group < 0 && d != keysUnique {
					continue // keys only matter when grouping
				}
				const count = 36
				c := streamConfig{tuples: 200, keys: d, leftShare: 1, startAt: -300}
				t.Run(fmt.Sprintf("%s/group=%d/%s", w.name, group, d), func(t *testing.T) {
					runWall(t, w.size*1000+w.slide*10+int64(d), count, c, func(stream int) *pair {
						return aggregatePair(AggregateConfig{
							Size: w.size, Slide: w.slide, Fn: AggFunc(stream % 5), ValueField: 0, GroupField: group,
						})
					})
				})
				streams += count
			}
		}
	}
	if streams < 1000 {
		t.Fatalf("wall too thin: %d streams", streams)
	}
}

// The aggregate's ring is ordered by window start rather than addressed by
// it, so it reproduces the reference on streams outside the SUnion contract
// too — late tuples that reopen windows behind the watermark, windows
// opening in the middle of the ring — which the join does not promise.
func TestAggregateMatchesReferenceModelOnUnorderedStreams(t *testing.T) {
	for s := int64(0); s < 300; s++ {
		r := rand.New(rand.NewSource(9000 + s))
		cfg := AggregateConfig{
			Size: 1 + r.Int63n(60), Slide: r.Int63n(40), Fn: AggFunc(r.Intn(5)), ValueField: 0,
			GroupField: r.Intn(2)*2 - 1,
		}
		ts := make([]tuple.Tuple, 300)
		for i := range ts {
			stime := r.Int63n(400) - 100
			switch u := r.Intn(20); {
			case u == 0:
				ts[i] = tuple.NewBoundary(stime)
			case u == 1:
				ts[i] = tuple.NewTentative(stime, r.Int63n(9), r.Int63n(4))
			default:
				ts[i] = tuple.NewInsertion(stime, r.Int63n(9), r.Int63n(4))
			}
		}
		aggregatePair(cfg).feedPerTuple(t, ts, 0)
		aggregatePair(cfg).feedFrames(t, r, ts)
		aggregatePair(cfg).feedAcrossRestore(t, r, ts)
	}
}

// A clean frame is not enough to promise clean output: tentative tuples
// buffered in the opposite join window, or folded into an open accumulator,
// during an earlier failure taint what a later all-stable frame produces.
// That is why neither operator is CleanPreserving — the staged dispatcher
// has to scan their output (internal/engine tests drive that end to end).
func TestStatefulOperatorsTaintCleanFramesAndSayso(t *testing.T) {
	clean := func(ts []tuple.Tuple) bool {
		for _, t := range ts {
			if t.Type != tuple.Insertion && !(t.Type == tuple.Boundary && t.Src == 0) {
				return false
			}
		}
		return true
	}

	j := NewSJoin("j", JoinConfig{Window: 100})
	jc := attachLoan(j, nil, true)
	held := tuple.NewTentative(10, 5)
	j.Process(0, held)
	jc.out = nil
	frame := []tuple.Tuple{tuple.Tuple{Type: tuple.Insertion, STime: 20, Src: 1}.WithData(5), tuple.NewBoundary(30)}
	if !clean(frame) || !j.ProcessBatch(0, frame) {
		t.Fatal("join must accept the clean frame")
	}
	if len(jc.out) != 2 || jc.out[0].Type != tuple.Tentative || jc.out[1].Type != tuple.Boundary {
		t.Fatalf("join of a stable tuple with a buffered tentative one must be tentative: %v", jc.out)
	}

	a := NewAggregate("a", AggregateConfig{Size: 10, Fn: AggSum, GroupField: -1})
	ac := attachLoan(a, nil, true)
	a.Process(0, tuple.NewTentative(3, 1))
	frame = []tuple.Tuple{tuple.NewInsertion(4, 1), tuple.NewBoundary(10)}
	if !clean(frame) || !a.ProcessBatch(0, frame) {
		t.Fatal("aggregate must accept the clean frame")
	}
	if len(ac.out) != 2 || ac.out[0].Type != tuple.Tentative || ac.out[0].Field(1) != 2 {
		t.Fatalf("window holding a tentative tuple must close tentative: %v", ac.out)
	}

	for _, op := range []Operator{j, a} {
		if _, ok := op.(CleanPreserving); ok {
			t.Errorf("%T must not be CleanPreserving", op)
		}
		if _, ok := op.(MutatesBatch); ok {
			t.Errorf("%T must not be MutatesBatch", op)
		}
	}
}
