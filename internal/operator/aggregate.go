package operator

import (
	"cmp"
	"fmt"
	"slices"

	"borealis/internal/tuple"
)

// AggFunc selects the aggregate function computed over each window.
type AggFunc uint8

const (
	// AggCount counts data tuples.
	AggCount AggFunc = iota
	// AggSum sums the value field.
	AggSum
	// AggAvg averages the value field (integer division).
	AggAvg
	// AggMin takes the minimum of the value field.
	AggMin
	// AggMax takes the maximum of the value field.
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggregateConfig parameterizes an Aggregate operator.
type AggregateConfig struct {
	// Size is the window length in stime units; Slide is the distance
	// between consecutive window starts (Slide == Size gives tumbling
	// windows). Windows are aligned to stime 0, which is the paper's
	// "independent window alignment" (§2.1): boundaries do not depend on
	// the first tuple processed, keeping the operator deterministic.
	Size, Slide int64
	// Fn is the aggregate function; ValueField indexes the aggregated
	// attribute in the tuple payload.
	Fn         AggFunc
	ValueField int
	// GroupField indexes the group-by attribute, or -1 for no grouping.
	GroupField int
}

type aggAcc struct {
	Count     int64
	Sum       int64
	Min, Max  int64
	Tentative bool
}

func (a *aggAcc) add(v int64, tentative bool) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
	a.Tentative = a.Tentative || tentative
}

func (a *aggAcc) value(fn AggFunc) int64 {
	switch fn {
	case AggCount:
		return a.Count
	case AggSum:
		return a.Sum
	case AggAvg:
		if a.Count == 0 {
			return 0
		}
		return a.Sum / a.Count
	case AggMin:
		return a.Min
	case AggMax:
		return a.Max
	}
	return 0
}

// Aggregate computes windowed aggregates over a single stime-ordered input
// stream (§2.1). A window closes when the watermark — advanced by both
// boundary tuples and data-tuple timestamps — passes its end. Windows closed
// on tentative evidence, or containing tentative tuples, produce tentative
// results; the same windows re-derived from stable inputs during
// reconciliation produce the stable corrections.
//
// Output tuples carry STime = window end and payload [group, value].
type Aggregate struct {
	Base
	cfg AggregateConfig
	// ring holds the open windows — those that received at least one
	// tuple — ascending by start at ring positions head .. head+n-1
	// (len(ring) is zero or a power of two). Windows open at the new end
	// and close from the old end; the slots outside the live range keep
	// their group slice and index for the next window to reuse.
	ring    []aggWindow
	head, n int
	// watermark is the highest stime evidence seen; closedThrough is the
	// highest window end already closed and emitted.
	watermark     int64
	closedThrough int64
	sentBound     int64

	// out is the scratch frame one ProcessBatch call stages its emissions
	// in and loans downstream. Allocation reuse only, never checkpointed.
	out []tuple.Tuple
}

// aggWindow is one open window: its groups in first-seen order (sorted by
// key once, when the window closes) and the key → position index over them.
type aggWindow struct {
	start  int64
	groups []aggGroup
	index  map[int64]int32
}

type aggGroup struct {
	Key int64
	aggAcc
}

// acc returns the accumulator of the given group, adding the group if new.
func (w *aggWindow) acc(key int64) *aggAcc {
	i, ok := w.index[key]
	if !ok {
		if w.index == nil {
			w.index = make(map[int64]int32)
		}
		i = int32(len(w.groups))
		w.index[key] = i
		w.groups = append(w.groups, aggGroup{Key: key})
	}
	return &w.groups[i].aggAcc
}

// reset empties the window, keeping both buffers for the slot's next use.
func (w *aggWindow) reset() {
	w.groups = w.groups[:0]
	clear(w.index)
}

// NewAggregate builds an aggregate operator.
func NewAggregate(name string, cfg AggregateConfig) *Aggregate {
	if cfg.Size <= 0 {
		panic("operator: aggregate window size must be positive")
	}
	if cfg.Slide <= 0 {
		cfg.Slide = cfg.Size
	}
	return &Aggregate{
		Base:          NewBase(name),
		cfg:           cfg,
		watermark:     -1,
		closedThrough: -1,
		sentBound:     -1,
	}
}

// Inputs returns 1: Aggregate consumes a serialized stream.
func (a *Aggregate) Inputs() int { return 1 }

// OpenWindows reports the number of currently open windows (for tests and
// the convergent-capable buffer-sizing logic of §8.1).
func (a *Aggregate) OpenWindows() int { return a.n }

// at returns the i-th open window, oldest first; at(n) is the spare slot
// the next window opens in.
func (a *Aggregate) at(i int) *aggWindow { return &a.ring[(a.head+i)&(len(a.ring)-1)] }

// Process consumes one tuple: ProcessBatch on a one-tuple frame.
func (a *Aggregate) Process(port int, t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	a.ProcessBatch(port, one[:])
}

// ProcessBatch consumes a frame, staging every emission — closed windows,
// forwarded boundaries, UNDO and REC_DONE, in stream order — in the scratch
// frame and loaning it downstream once. It never declines, and it is
// deliberately not CleanPreserving: a clean frame can close a window whose
// accumulators took tentative tuples during an earlier failure, so the
// staged dispatcher must rescan what the aggregate emits. The input frame
// is only read.
func (a *Aggregate) ProcessBatch(_ int, ts []tuple.Tuple) bool {
	out := a.out[:0]
	for i := range ts {
		t := &ts[i]
		switch {
		case t.IsData():
			a.add(t)
			out = a.advance(out, t.STime, t.Type == tuple.Tentative)
		case t.Type == tuple.Boundary:
			out = a.advance(out, t.STime, false)
			if t.STime > a.sentBound {
				a.sentBound = t.STime
				out = append(out, *t)
			}
		default:
			out = append(out, *t) // UNDO / REC_DONE pass through
		}
	}
	a.out = out
	if len(out) > 0 {
		a.EmitLoan(out)
	}
	return true
}

// add accumulates a data tuple into every window containing its stime, the
// newest first: the grid point at or below stime, then each earlier one
// still above stime-Size. (With Slide > Size a tuple can fall between
// windows; it then counts toward the window starting at that grid point.)
// Windows already closed drop the tuple, and once one is, every older one
// is too. The cursor pos walks the ring downward alongside, so a tuple
// costs one step per window it belongs to.
func (a *Aggregate) add(t *tuple.Tuple) {
	group := int64(0)
	if a.cfg.GroupField >= 0 {
		group = t.Field(a.cfg.GroupField)
	}
	v := t.Field(a.cfg.ValueField)
	size, slide := a.cfg.Size, a.cfg.Slide
	ws := t.STime / slide * slide
	if ws > t.STime {
		ws -= slide // division truncates toward zero; the grid needs floor
	}
	first, pos := t.STime-size+1, a.n
	for {
		if ws+size-1 <= a.closedThrough {
			return // late for an already-closed window; dropped
		}
		for pos > 0 && a.at(pos-1).start > ws {
			pos--
		}
		var w *aggWindow
		if pos > 0 && a.at(pos-1).start == ws {
			pos--
			w = a.at(pos)
		} else {
			w = a.open(pos, ws)
		}
		w.acc(group).add(v, t.Type == tuple.Tentative)
		if ws -= slide; ws < first {
			return
		}
	}
}

// open inserts an empty window starting at ws at position pos of the ring
// (pos == n, the new end, on any stime-ordered stream), reusing the spare
// slot's buffers.
func (a *Aggregate) open(pos int, ws int64) *aggWindow {
	if a.n == len(a.ring) {
		ring := make([]aggWindow, max(4, 2*len(a.ring)))
		for i := 0; i < a.n; i++ {
			ring[i] = *a.at(i)
		}
		a.ring, a.head = ring, 0
	}
	spare := *a.at(a.n)
	for i := a.n; i > pos; i-- {
		*a.at(i) = *a.at(i - 1)
	}
	w := a.at(pos)
	*w = spare
	w.start = ws
	a.n++
	return w
}

// advance moves the watermark and closes every window whose end has passed,
// appending the results to out in window-start, then group order. A window
// "ends" at start+Size-1; it closes when the watermark reaches or exceeds
// start+Size (evidence that no further tuple belongs to it).
func (a *Aggregate) advance(out []tuple.Tuple, stime int64, tentativeEvidence bool) []tuple.Tuple {
	if stime <= a.watermark {
		return out
	}
	a.watermark = stime
	for a.n > 0 {
		w := a.at(0)
		if w.start+a.cfg.Size > a.watermark {
			break
		}
		slices.SortFunc(w.groups, func(x, y aggGroup) int { return cmp.Compare(x.Key, y.Key) })
		end := w.start + a.cfg.Size - 1
		for i := range w.groups {
			g := &w.groups[i]
			o := tuple.Tuple{Type: tuple.Insertion, STime: end}
			if g.Tentative || tentativeEvidence {
				o.Type = tuple.Tentative
			}
			o.SetData(nil, g.Key, g.value(a.cfg.Fn))
			out = append(out, o)
		}
		if end > a.closedThrough {
			a.closedThrough = end
		}
		w.reset()
		a.head = (a.head + 1) & (len(a.ring) - 1)
		a.n--
	}
	return out
}

type aggState struct {
	Windows       []aggWindowState // ascending by start
	Watermark     int64
	ClosedThrough int64
	SentBound     int64
}

type aggWindowState struct {
	Start  int64
	Groups []aggGroup
}

// Checkpoint deep-copies the open windows and watermarks.
func (a *Aggregate) Checkpoint() any {
	ws := make([]aggWindowState, a.n)
	for i := range ws {
		w := a.at(i)
		ws[i] = aggWindowState{Start: w.start, Groups: slices.Clone(w.groups)}
	}
	return aggState{Windows: ws, Watermark: a.watermark, ClosedThrough: a.closedThrough, SentBound: a.sentBound}
}

// Restore reinstates a snapshot; the group indexes are derived state,
// rebuilt here.
func (a *Aggregate) Restore(s any) {
	st := s.(aggState)
	for i := 0; i < a.n; i++ {
		a.at(i).reset()
	}
	a.n = 0
	for _, sw := range st.Windows {
		w := a.open(a.n, sw.Start)
		for _, g := range sw.Groups {
			*w.acc(g.Key) = g.aggAcc
		}
	}
	a.watermark = st.Watermark
	a.closedThrough = st.ClosedThrough
	a.sentBound = st.SentBound
}
