package node

import (
	"math/rand"
	"testing"

	"borealis/internal/tuple"
)

// at returns live tuple i.
func (l *TupleLog) at(i int) *tuple.Tuple {
	r, off := l.seek(i)
	return &l.runs[r].ts[off]
}

// ackCutLinear is the walk Ack made before segments were skipped, kept as
// ackCut's oracle: one tuple at a time from the head, remembering the last
// stable Insertion with id ≤ upTo and stopping at the first data tuple with
// a larger id.
func ackCutLinear(l *TupleLog, upTo uint64) int {
	cut := 0
	for i := 0; i < l.n; i++ {
		t := l.at(i)
		if t.IsData() && t.ID <= upTo && t.Type == tuple.Insertion {
			cut = i + 1
		}
		if t.IsData() && t.ID > upTo {
			break
		}
	}
	return cut
}

// TestAckCutMatchesLinearWalk drives seeded random buffers — data,
// boundaries, tentative runs, anchored and unanchored UNDOs, bulk
// publishes, acks that leave the head mid-segment, slides — and after
// every step compares ackCut with the linear walk for ids at segment
// boundaries, ids ever published, zero and ids never used.
func TestAckCutMatchesLinearWalk(t *testing.T) {
	configs := []struct {
		mode     BufferMode
		cap      int
		expected []string
	}{
		{BufferUnbounded, 0, nil},
		{BufferUnbounded, 0, []string{"d1", "d2"}},
		{BufferSlide, 2*obSegSize + 37, []string{"d1"}},
	}
	skipped := 0 // probes whose cut passed a whole run
	for ci, c := range configs {
		for seed := 0; seed < 4; seed++ {
			rng := rand.New(rand.NewSource(int64(7000 + 100*ci + seed)))
			w := newOBTwin(t, obNetsim, c.mode, c.cap, c.expected)
			for i := 0; i < 250; i++ {
				what := w.step(rng, i)
				l := &w.got.log
				for k := 0; k < 8; k++ {
					id := w.pickID(rng)
					got, want := l.ackCut(id), ackCutLinear(l, id)
					if got != want {
						t.Fatalf("config %d seed %d %s: ackCut(%d) = %d, linear walk %d (%d runs, %d live)",
							ci, seed, what, id, got, want, len(l.runs), l.n)
					}
					if len(l.runs) > 0 && got > len(l.runs[0].ts) {
						skipped++
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no probe released a whole run")
	}
}

// TestAckCutSegmentEdges pins cuts at, just before and just after segment
// boundaries on a log whose head sits mid-segment and whose segments end
// in boundaries and tentative runs.
func TestAckCutSegmentEdges(t *testing.T) {
	w := newOBTwin(t, obNetsim, BufferUnbounded, 0, []string{"d1"})
	for i := 0; i < 3*obSegSize+50; i++ {
		switch {
		case i%obSegSize >= obSegSize-3:
			w.stime++
			w.publish(tuple.NewBoundary(w.stime))
		default:
			w.publish(w.data(false))
		}
	}
	w.ack("d1", 300) // the head moves mid-segment
	for i := 0; i < 40; i++ {
		w.publish(w.data(true))
	}
	l := &w.got.log
	for _, id := range w.ids {
		for _, probe := range []uint64{id - 1, id, id + 1} {
			if got, want := l.ackCut(probe), ackCutLinear(l, probe); got != want {
				t.Fatalf("ackCut(%d) = %d, linear walk %d", probe, got, want)
			}
		}
	}
}
