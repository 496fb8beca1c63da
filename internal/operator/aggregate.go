package operator

import (
	"cmp"
	"fmt"
	"math"
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

// merge folds another accumulator's tuples into a.
func (a *aggAcc) merge(b *aggAcc) {
	if a.Count == 0 {
		*a = *b
		return
	}
	a.Min = min(a.Min, b.Min)
	a.Max = max(a.Max, b.Max)
	a.Count += b.Count
	a.Sum += b.Sum
	a.Tentative = a.Tentative || b.Tentative
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
// The state is kept in panes (Li et al., "No Pane, No Gain", SIGMOD Record
// 2005): stime intervals gcd(Size, Slide) wide, so every window is a union
// of whole panes. A data tuple folds into one pane's group accumulator; a
// closing window combines the groups of its panes.
//
// Output tuples carry STime = window end and payload [group, value].
type Aggregate struct {
	Base
	cfg AggregateConfig
	// pane is the pane width. span is how far past its start a window
	// collects tuples: Size, or Slide when Slide > Size, because a tuple
	// between two windows counts toward the earlier one.
	pane, span int64
	// ring holds the panes that took a tuple and that some unclosed window
	// still spans, ascending by start at ring positions head .. head+n-1
	// (len(ring) is zero or a power of two). Panes open at the new end and
	// drop from the old end; the slots outside the live range keep their
	// group slice and index for the next pane to reuse.
	ring    []aggPane
	head, n int
	// due is the watermark at which the earliest window holding a pane
	// closes: its start + Size. Derived state, valid while n > 0.
	due int64
	// watermark is the highest stime evidence seen; closedThrough is the
	// highest window end already closed and emitted.
	watermark     int64
	closedThrough int64
	sentBound     int64

	// win is the scratch a closing window combines its panes' groups in,
	// and out the scratch frame one ProcessBatch call stages its emissions
	// in and loans downstream. Allocation reuse only, never checkpointed.
	win aggPane
	out []tuple.Tuple
}

// aggPane is one pane: its groups in first-seen order and the key →
// position index over them.
type aggPane struct {
	start  int64
	groups []aggGroup
	index  map[int64]int32
}

type aggGroup struct {
	Key int64
	aggAcc
}

// acc returns the accumulator of the given group, adding the group if new.
// A key repeating the last one added skips the index.
func (p *aggPane) acc(key int64) *aggAcc {
	if n := len(p.groups); n > 0 && p.groups[n-1].Key == key {
		return &p.groups[n-1].aggAcc
	}
	i, ok := p.index[key]
	if !ok {
		if p.index == nil {
			p.index = make(map[int64]int32)
		}
		i = int32(len(p.groups))
		p.index[key] = i
		p.groups = append(p.groups, aggGroup{Key: key})
	}
	return &p.groups[i].aggAcc
}

// reset empties the pane, keeping both buffers for the slot's next use.
func (p *aggPane) reset() {
	p.groups = p.groups[:0]
	clear(p.index)
}

// NewAggregate builds an aggregate operator.
func NewAggregate(name string, cfg AggregateConfig) *Aggregate {
	if cfg.Size <= 0 {
		panic("operator: aggregate window size must be positive")
	}
	if cfg.Slide <= 0 {
		cfg.Slide = cfg.Size
	}
	pane := cfg.Size
	for r := cfg.Slide; r != 0; pane, r = r, pane%r {
	}
	return &Aggregate{
		Base:          NewBase(name),
		cfg:           cfg,
		pane:          pane,
		span:          max(cfg.Size, cfg.Slide),
		watermark:     -1,
		closedThrough: -1,
		sentBound:     -1,
	}
}

// Inputs returns 1: Aggregate consumes a serialized stream.
func (a *Aggregate) Inputs() int { return 1 }

// OpenWindows reports the number of currently open windows — unclosed
// windows holding at least one tuple — for tests and the
// convergent-capable buffer-sizing logic of §8.1. It counts the windows
// spanning each pane, once each.
func (a *Aggregate) OpenWindows() int {
	open := 0
	next := int64(math.MinInt64)
	for i := 0; i < a.n; i++ {
		ps := a.at(i).start
		lo := max(a.firstOpen(ps), next)
		if hi := floorTo(ps, a.cfg.Slide); hi >= lo {
			open += int((hi-lo)/a.cfg.Slide) + 1
			next = hi + a.cfg.Slide
		}
	}
	return open
}

// floorTo rounds x down to a multiple of m; division truncates toward zero,
// the grids need floor.
func floorTo(x, m int64) int64 {
	f := x / m * m
	if f > x {
		f -= m
	}
	return f
}

// ceilTo rounds x up to a multiple of m.
func ceilTo(x, m int64) int64 {
	c := floorTo(x, m)
	if c < x {
		c += m
	}
	return c
}

// firstOpen is the start of the earliest unclosed window spanning the pane
// starting at ps: the later of the earliest window spanning it and the
// earliest window not yet closed.
func (a *Aggregate) firstOpen(ps int64) int64 {
	return max(ceilTo(ps-a.span+1, a.cfg.Slide), ceilTo(a.closedThrough-a.cfg.Size+2, a.cfg.Slide))
}

// dead reports whether every window spanning the pane starting at ps has
// closed: the last of them starts at the slide grid point at or below ps.
func (a *Aggregate) dead(ps int64) bool {
	return floorTo(ps, a.cfg.Slide)+a.cfg.Size-1 <= a.closedThrough
}

// at returns the i-th live pane, oldest first; at(n) is the spare slot the
// next pane opens in.
func (a *Aggregate) at(i int) *aggPane { return &a.ring[(a.head+i)&(len(a.ring)-1)] }

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
// staged dispatcher must scan what the aggregate emits. The input frame
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

// add folds a data tuple into the pane holding its stime — on a
// stime-ordered stream the newest one, found without dividing. The windows
// spanning a pane are the windows the tuple belongs to; when every one of
// them has closed, the tuple is late and dropped.
func (a *Aggregate) add(t *tuple.Tuple) {
	var p *aggPane
	if a.n > 0 {
		if last := a.at(a.n - 1); t.STime >= last.start && t.STime-last.start < a.pane {
			p = last
		}
	}
	if p == nil {
		ps := floorTo(t.STime, a.pane)
		if a.dead(ps) {
			return // late for every window holding the pane; dropped
		}
		p = a.paneAt(ps)
	}
	group := int64(0)
	if a.cfg.GroupField >= 0 {
		group = t.Field(a.cfg.GroupField)
	}
	p.acc(group).add(t.Field(a.cfg.ValueField), t.Type == tuple.Tentative)
}

// paneAt returns the pane starting at ps, opening it in start order if
// absent (at the new end, on any stime-ordered stream).
func (a *Aggregate) paneAt(ps int64) *aggPane {
	pos := a.n
	for pos > 0 && a.at(pos-1).start > ps {
		pos--
	}
	if pos > 0 && a.at(pos-1).start == ps {
		return a.at(pos - 1)
	}
	p := a.open(pos, ps)
	if pos == 0 {
		a.refreshDue()
	}
	return p
}

// open inserts an empty pane starting at ps at position pos of the ring,
// reusing the spare slot's buffers.
func (a *Aggregate) open(pos int, ps int64) *aggPane {
	if a.n == len(a.ring) {
		ring := make([]aggPane, max(4, 2*len(a.ring)))
		for i := 0; i < a.n; i++ {
			ring[i] = *a.at(i)
		}
		a.ring, a.head = ring, 0
	}
	spare := *a.at(a.n)
	for i := a.n; i > pos; i-- {
		*a.at(i) = *a.at(i - 1)
	}
	p := a.at(pos)
	*p = spare
	p.start = ps
	a.n++
	return p
}

// refreshDue recomputes due from the oldest pane: the earliest window
// holding it that has not closed. Every live pane has one, so that window
// holds a tuple and no earlier unclosed window does.
func (a *Aggregate) refreshDue() {
	if a.n > 0 {
		a.due = a.firstOpen(a.at(0).start) + a.cfg.Size
	}
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
	for a.n > 0 && a.due <= a.watermark {
		out = a.close(out, a.due-a.cfg.Size, tentativeEvidence)
	}
	return out
}

// close emits the window starting at ws, the earliest one holding a pane:
// it combines the groups of the panes it spans (no live pane starts before
// ws) and sorts them by key. It then drops the panes no unclosed window
// spans any more.
func (a *Aggregate) close(out []tuple.Tuple, ws int64, tentativeEvidence bool) []tuple.Tuple {
	w := &a.win
	for i := 0; i < a.n; i++ {
		p := a.at(i)
		if p.start >= ws+a.span {
			break
		}
		for j := range p.groups {
			w.acc(p.groups[j].Key).merge(&p.groups[j].aggAcc)
		}
	}
	slices.SortFunc(w.groups, func(x, y aggGroup) int { return cmp.Compare(x.Key, y.Key) })
	end := ws + a.cfg.Size - 1
	for i := range w.groups {
		g := &w.groups[i]
		o := tuple.Tuple{Type: tuple.Insertion, STime: end}
		if g.Tentative || tentativeEvidence {
			o.Type = tuple.Tentative
		}
		o.SetData(nil, g.Key, g.value(a.cfg.Fn))
		out = append(out, o)
	}
	w.reset()
	a.closedThrough = end
	for a.n > 0 && a.dead(a.at(0).start) {
		a.at(0).reset()
		a.head = (a.head + 1) & (len(a.ring) - 1)
		a.n--
	}
	a.refreshDue()
	return out
}

type aggState struct {
	Panes         []aggPaneState // ascending by start
	Watermark     int64
	ClosedThrough int64
	SentBound     int64
}

type aggPaneState struct {
	Start  int64
	Groups []aggGroup
}

// Checkpoint deep-copies the live panes and watermarks.
func (a *Aggregate) Checkpoint() any {
	ps := make([]aggPaneState, a.n)
	for i := range ps {
		p := a.at(i)
		ps[i] = aggPaneState{Start: p.start, Groups: slices.Clone(p.groups)}
	}
	return aggState{Panes: ps, Watermark: a.watermark, ClosedThrough: a.closedThrough, SentBound: a.sentBound}
}

// Restore reinstates a snapshot; the group indexes and due are derived
// state, rebuilt here.
func (a *Aggregate) Restore(s any) {
	st := s.(aggState)
	for i := 0; i < a.n; i++ {
		a.at(i).reset()
	}
	a.n = 0
	a.closedThrough = st.ClosedThrough
	for _, sp := range st.Panes {
		p := a.open(a.n, sp.Start)
		for _, g := range sp.Groups {
			*p.acc(g.Key) = g.aggAcc
		}
	}
	a.refreshDue()
	a.watermark = st.Watermark
	a.sentBound = st.SentBound
}
