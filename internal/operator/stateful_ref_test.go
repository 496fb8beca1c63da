package operator

// Reference models for the equivalence wall (stateful_equiv_test.go): the
// SJoin and Aggregate bodies as they stood before the ring-window rebuild —
// the linear-scan join over two slices and the map-of-maps aggregate —
// moved here verbatim, with only the type names prefixed. They are the
// executable specification the rebuilt operators are compared against.

import (
	"slices"
	"sort"

	"borealis/internal/tuple"
)

// refSJoin is the paper's modified Join operator (§3): a windowed, key-equality
// join that consumes the single deterministic order prepared by a preceding
// SUnion, so that all replicas process the exact same interleaving. It
// blocks naturally when one side's tuples are missing (a Join is a blocking
// operator, §2.1), and it labels an output tentative whenever either
// matching tuple is tentative.
type refSJoin struct {
	Base
	cfg JoinConfig
	// left and right hold buffered tuples in arrival (stime) order,
	// pruned as the watermark advances past usefulness.
	left, right []tuple.Tuple
	watermark   int64
	sentBound   int64

	// matchScratch is the reusable candidate buffer of match(): pure
	// allocation reuse, not operator state, so not checkpointed.
	matchScratch []tuple.Tuple
}

// newRefSJoin builds an refSJoin.
func newRefSJoin(name string, cfg JoinConfig) *refSJoin {
	if cfg.Window <= 0 {
		panic("operator: join window must be positive")
	}
	if cfg.IsLeft == nil {
		cfg.IsLeft = func(src int32) bool { return src == 0 }
	}
	return &refSJoin{Base: NewBase(name), cfg: cfg, watermark: -1, sentBound: -1}
}

// Inputs returns 1: refSJoin consumes an SUnion-serialized stream.
func (j *refSJoin) Inputs() int { return 1 }

// StateSize reports the number of buffered tuples (the paper sizes this
// join's state at 100 tuples in the Table III / Fig. 13 experiments).
func (j *refSJoin) StateSize() int { return len(j.left) + len(j.right) }

// Process consumes one tuple from the serialized stream.
func (j *refSJoin) Process(_ int, t tuple.Tuple) {
	switch {
	case t.IsData():
		if j.cfg.IsLeft(t.Src) {
			j.match(t, j.right, j.cfg.LeftKey, j.cfg.RightKey, true)
			j.left = append(j.left, t)
		} else {
			j.match(t, j.left, j.cfg.RightKey, j.cfg.LeftKey, false)
			j.right = append(j.right, t)
		}
		if t.STime > j.watermark {
			j.watermark = t.STime
			j.prune()
		}
	case t.Type == tuple.Boundary:
		if t.STime > j.watermark {
			j.watermark = t.STime
			j.prune()
		}
		if t.STime > j.sentBound {
			j.sentBound = t.STime
			j.Emit(t)
		}
	default:
		j.Emit(t) // UNDO / REC_DONE pass through
	}
}

// match scans the opposite buffer (newest first, stopping once outside the
// window) and emits joined tuples. Output payload is left's values ++ right's
// and output stime is the later of the pair.
func (j *refSJoin) match(t tuple.Tuple, opposite []tuple.Tuple, myKey, otherKey int, tIsLeft bool) {
	key := t.Field(myKey)
	// Walk backwards: buffers are stime-ordered, so we can stop at the
	// first tuple older than the window allows.
	matches := j.matchScratch[:0]
	for i := len(opposite) - 1; i >= 0; i-- {
		o := opposite[i]
		if o.STime < t.STime-j.cfg.Window {
			break
		}
		if o.STime > t.STime+j.cfg.Window {
			continue
		}
		if o.Field(otherKey) == key {
			matches = append(matches, o)
		}
	}
	// Emit in buffer (stime) order for determinism.
	for i := len(matches) - 1; i >= 0; i-- {
		o := matches[i]
		l, r := t, o
		if !tIsLeft {
			l, r = o, t
		}
		out := tuple.Tuple{Type: tuple.Insertion, STime: refMaxI64(l.STime, r.STime)}
		if l.Type == tuple.Tentative || r.Type == tuple.Tentative {
			out.Type = tuple.Tentative
		}
		out.SetData(nil, append(append([]int64(nil), l.Values()...), r.Values()...)...)
		j.Emit(out)
	}
	clear(matches)
	j.matchScratch = matches[:0]
}

// prune drops buffered tuples too old to match anything at or beyond the
// watermark: a future tuple has stime ≥ watermark, so partners below
// watermark-Window are dead.
func (j *refSJoin) prune() {
	cut := j.watermark - j.cfg.Window
	j.left = refPruneBefore(j.left, cut)
	j.right = refPruneBefore(j.right, cut)
}

func refPruneBefore(ts []tuple.Tuple, cut int64) []tuple.Tuple {
	i := 0
	for i < len(ts) && ts[i].STime < cut {
		i++
	}
	if i == 0 {
		return ts
	}
	return append(ts[:0:0], ts[i:]...)
}

func refMaxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

type refJoinState struct {
	Left, Right []tuple.Tuple
	Watermark   int64
	SentBound   int64
}

// Checkpoint deep-copies the join buffers.
func (j *refSJoin) Checkpoint() any {
	return refJoinState{
		Left:      slices.Clone(j.left),
		Right:     slices.Clone(j.right),
		Watermark: j.watermark,
		SentBound: j.sentBound,
	}
}

// Restore reinstates a snapshot.
func (j *refSJoin) Restore(s any) {
	st := s.(refJoinState)
	j.left = slices.Clone(st.Left)
	j.right = slices.Clone(st.Right)
	j.watermark = st.Watermark
	j.sentBound = st.SentBound
}

// refAggregate computes windowed aggregates over a single stime-ordered input
// stream (§2.1). A window closes when the watermark — advanced by both
// boundary tuples and data-tuple timestamps — passes its end. Windows closed
// on tentative evidence, or containing tentative tuples, produce tentative
// results; the same windows re-derived from stable inputs during
// reconciliation produce the stable corrections.
//
// Output tuples carry STime = window end and payload [group, value].
type refAggregate struct {
	Base
	cfg AggregateConfig
	// windows maps window start → group → accumulator.
	windows map[int64]map[int64]*aggAcc
	// watermark is the highest stime evidence seen; closedThrough is the
	// highest window end already closed and emitted.
	watermark     int64
	closedThrough int64
	sentBound     int64

	// Reusable scratch for windowStarts and advance — allocation reuse
	// only, never checkpointed.
	startsScratch []int64
	keysScratch   []int64
}

// newRefAggregate builds an aggregate operator.
func newRefAggregate(name string, cfg AggregateConfig) *refAggregate {
	if cfg.Size <= 0 {
		panic("operator: aggregate window size must be positive")
	}
	if cfg.Slide <= 0 {
		cfg.Slide = cfg.Size
	}
	return &refAggregate{
		Base:          NewBase(name),
		cfg:           cfg,
		windows:       make(map[int64]map[int64]*aggAcc),
		watermark:     -1,
		closedThrough: -1,
		sentBound:     -1,
	}
}

// Inputs returns 1: refAggregate consumes a serialized stream.
func (a *refAggregate) Inputs() int { return 1 }

// OpenWindows reports the number of currently open windows (for tests and
// the convergent-capable buffer-sizing logic of §8.1).
func (a *refAggregate) OpenWindows() int { return len(a.windows) }

// windowStarts returns the starts of every window containing stime.
func (a *refAggregate) windowStarts(stime int64) []int64 {
	first := stime - a.cfg.Size + 1
	// Align the first window start at or above `first` to the slide grid.
	start := (first / a.cfg.Slide) * a.cfg.Slide
	if start < first {
		start += a.cfg.Slide
	}
	// Guard against negative stimes rounding the wrong way.
	for start > stime {
		start -= a.cfg.Slide
	}
	out := a.startsScratch[:0]
	for s := start; s <= stime; s += a.cfg.Slide {
		out = append(out, s)
	}
	a.startsScratch = out
	return out
}

// Process consumes one tuple.
func (a *refAggregate) Process(_ int, t tuple.Tuple) {
	switch {
	case t.IsData():
		group := int64(0)
		if a.cfg.GroupField >= 0 {
			group = t.Field(a.cfg.GroupField)
		}
		v := t.Field(a.cfg.ValueField)
		for _, ws := range a.windowStarts(t.STime) {
			if ws+a.cfg.Size-1 <= a.closedThrough {
				continue // late for an already-closed window; dropped
			}
			g := a.windows[ws]
			if g == nil {
				g = make(map[int64]*aggAcc)
				a.windows[ws] = g
			}
			acc := g[group]
			if acc == nil {
				acc = &aggAcc{}
				g[group] = acc
			}
			acc.add(v, t.Type == tuple.Tentative)
		}
		a.advance(t.STime, t.Type == tuple.Tentative)
	case t.Type == tuple.Boundary:
		a.advance(t.STime, false)
		if t.STime > a.sentBound {
			a.sentBound = t.STime
			a.Emit(t)
		}
	default:
		a.Emit(t) // UNDO / REC_DONE pass through
	}
}

// advance moves the watermark and closes every window whose end has passed.
// A window "ends" at start+Size-1; it closes when the watermark reaches or
// exceeds start+Size (evidence that no further tuple belongs to it).
func (a *refAggregate) advance(stime int64, tentativeEvidence bool) {
	if stime <= a.watermark {
		return
	}
	a.watermark = stime
	// Collect closable windows in deterministic (start) order. advance is
	// not reentered through Emit (diagrams are acyclic), so the scratch
	// slices cannot be aliased mid-loop.
	starts := a.keysScratch[:0]
	for ws := range a.windows {
		if ws+a.cfg.Size <= a.watermark {
			starts = append(starts, ws)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, ws := range starts {
		groups := a.windows[ws]
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		end := ws + a.cfg.Size - 1
		for _, k := range keys {
			acc := groups[k]
			out := tuple.Tuple{Type: tuple.Insertion, STime: end}.WithData(k, acc.value(a.cfg.Fn))
			if acc.Tentative || tentativeEvidence {
				out.Type = tuple.Tentative
			}
			a.Emit(out)
		}
		if end > a.closedThrough {
			a.closedThrough = end
		}
		delete(a.windows, ws)
	}
	a.keysScratch = starts[:0]
}

type refAggState struct {
	Windows       map[int64]map[int64]aggAcc
	Watermark     int64
	ClosedThrough int64
	SentBound     int64
}

// Checkpoint deep-copies the open windows and watermarks.
func (a *refAggregate) Checkpoint() any {
	ws := make(map[int64]map[int64]aggAcc, len(a.windows))
	for s, groups := range a.windows {
		g := make(map[int64]aggAcc, len(groups))
		for k, acc := range groups {
			g[k] = *acc
		}
		ws[s] = g
	}
	return refAggState{Windows: ws, Watermark: a.watermark, ClosedThrough: a.closedThrough, SentBound: a.sentBound}
}

// Restore reinstates a snapshot.
func (a *refAggregate) Restore(s any) {
	st := s.(refAggState)
	a.windows = make(map[int64]map[int64]*aggAcc, len(st.Windows))
	for ws, groups := range st.Windows {
		g := make(map[int64]*aggAcc, len(groups))
		for k, acc := range groups {
			cp := acc
			g[k] = &cp
		}
		a.windows[ws] = g
	}
	a.watermark = st.Watermark
	a.closedThrough = st.ClosedThrough
	a.sentBound = st.SentBound
}
