package operator

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"borealis/internal/tuple"
)

// The pane aggregate against the map-of-maps reference of
// stateful_ref_test.go on the window shapes panes make interesting: panes
// narrower than the slide (the slide does not divide the size), windows
// with gaps between them (a tuple in a gap counts toward the window before
// it), and checkpoints taken while a pane is still filling.

func TestAggregateMatchesReferenceModelPanes(t *testing.T) {
	for _, w := range []struct {
		name        string
		size, slide int64
		tuples      int
	}{
		{"sliding100by30", 100, 30, 300}, // pane 10
		{"sliding45by20", 45, 20, 200},   // pane 5
		{"sliding7by3", 7, 3, 150},       // pane 1
		{"sliding1000by750", 1000, 750, 1500},
		{"sliding1000by250", 1000, 250, 1500}, // the benchmark's shape, scaled
		{"hopping30by45", 30, 45, 200},        // pane 15, gap 15
		{"hopping40by100", 40, 100, 300},      // pane 20, gap 60
		{"hopping4by6", 4, 6, 150},            // pane 2, gap 2
	} {
		for _, group := range []int{-1, 1} {
			for _, d := range []keyDist{keysUnique, keysZipf} {
				if group < 0 && d != keysUnique {
					continue
				}
				c := streamConfig{tuples: w.tuples, keys: d, leftShare: 1, startAt: -w.size - 7}
				t.Run(fmt.Sprintf("%s/group=%d/%s", w.name, group, d), func(t *testing.T) {
					runWall(t, 7700+w.size*10+w.slide+int64(d), 12, c, func(stream int) *pair {
						return aggregatePair(AggregateConfig{
							Size: w.size, Slide: w.slide, Fn: AggFunc(stream % 5), ValueField: 0, GroupField: group,
						})
					})
				})
			}
		}
	}
}

// Checkpoints between two tuples of one pane: the restored pane must go on
// filling from its checkpointed accumulators.
func TestAggregateRestoresInTheMiddleOfAPane(t *testing.T) {
	for _, cfg := range []AggregateConfig{
		{Size: 40, Slide: 10, Fn: AggSum, GroupField: 1},
		{Size: 100, Slide: 30, Fn: AggMax, GroupField: 1},
		{Size: 30, Slide: 45, Fn: AggCount, GroupField: -1},
		{Size: 20, Slide: 20, Fn: AggMin, GroupField: 1},
	} {
		r := rand.New(rand.NewSource(cfg.Size*100 + cfg.Slide))
		ts := genStream(r, streamConfig{tuples: 400, keys: keysZipf, leftShare: 1})
		pane := NewAggregate("a", cfg).pane
		cuts := 0
		for cut := 1; cut < len(ts) && cuts < 40; cut++ {
			a, b := &ts[cut-1], &ts[cut]
			if !a.IsData() || !b.IsData() || floorTo(a.STime, pane) != floorTo(b.STime, pane) {
				continue
			}
			cuts++
			on := cut + r.Intn(len(ts)-cut+1)
			p := aggregatePair(cfg)
			p.feedPerTuple(t, ts[:cut], 0)
			gotSnap, refSnap := p.got.Checkpoint(), p.ref.Checkpoint()
			p.feedPerTuple(t, ts[cut:on], cut)
			p.got.Restore(gotSnap)
			p.ref.Restore(refSnap)
			p.compare(t, fmt.Sprintf("after restore at %d", cut))
			p.feedPerTuple(t, ts[cut:], cut)
		}
		if cuts < 20 {
			t.Fatalf("%+v: only %d checkpoints inside a pane", cfg, cuts)
		}
	}
}

// FuzzAggregatePanesMatchReference draws a window shape and a stream from
// bytes — two per tuple: its kind and its stime step, which may step back
// so late tuples reach windows behind the watermark — and runs the stream
// per tuple, in frames and across a restore against the reference.
func FuzzAggregatePanesMatchReference(f *testing.F) {
	f.Add(uint8(40), uint8(10), uint8(3), []byte{0, 2, 0, 3, 1, 2, 0, 9, 2, 4, 0, 1, 0, 30, 3, 1})
	f.Add(uint8(30), uint8(45), uint8(6), []byte{0, 5, 0, 20, 0, 7, 1, 15, 0, 50, 4, 0, 0, 2})
	f.Add(uint8(100), uint8(30), uint8(2), []byte{0, 11, 0, 13, 0, 40, 0, 200, 5, 9, 0, 3, 2, 90})
	f.Fuzz(func(t *testing.T, size, slide, fnGroup uint8, stream []byte) {
		cfg := AggregateConfig{
			Size: 1 + int64(size), Slide: int64(slide), Fn: AggFunc(fnGroup % 5), GroupField: int(fnGroup/5%2)*2 - 1,
		}
		var ts []tuple.Tuple
		stime := int64(-20)
		for i := 0; i+1 < len(stream) && len(ts) < 400; i += 2 {
			kind, step := stream[i], int64(stream[i+1])
			if kind&8 != 0 {
				step = -step // late
			}
			stime += step
			switch kind & 7 {
			case 1:
				ts = append(ts, tuple.NewBoundary(stime))
			case 2:
				ts = append(ts, tuple.NewTentative(stime, int64(step), int64(kind>>4)))
			case 3:
				ts = append(ts, tuple.NewUndo(uint64(step)))
			default:
				ts = append(ts, tuple.NewInsertion(stime, int64(step), int64(kind>>4)))
			}
		}
		if len(ts) == 0 {
			return
		}
		var seed [8]byte
		copy(seed[:], stream)
		r := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
		aggregatePair(cfg).feedPerTuple(t, ts, 0)
		aggregatePair(cfg).feedFrames(t, r, ts)
		aggregatePair(cfg).feedAcrossRestore(t, r, ts)
	})
}
