package operator

import (
	"slices"
	"sort"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// DelayPolicy selects what an SUnion does with tuples it cannot yet emit
// stably, i.e. the availability/consistency trade-off of §6.
type DelayPolicy uint8

const (
	// PolicyNone is the STABLE-state behaviour: buckets are emitted only
	// once boundary tuples prove them stable.
	PolicyNone DelayPolicy = iota
	// PolicyProcess emits unstable buckets almost as they arrive (after
	// TentativeWait), once the initial suspension of 0.9·D has elapsed.
	PolicyProcess
	// PolicyDelay holds every unstable bucket for 0.9·D from the arrival
	// of its first tuple before emitting it tentatively.
	PolicyDelay
	// PolicySuspend never emits unstable buckets; availability is
	// sacrificed entirely until the failure heals or the policy changes.
	PolicySuspend
)

func (p DelayPolicy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyProcess:
		return "process"
	case PolicyDelay:
		return "delay"
	case PolicySuspend:
		return "suspend"
	}
	return "unknown"
}

// DefaultSafetyFactor is the paper's 0.9·D precaution (footnote 3): SUnions
// release after 0.9 of their assigned delay to leave slack for scheduling.
const DefaultSafetyFactor = 0.9

// DefaultTentativeWait is how long an SUnion waits before emitting a
// tentative bucket under PolicyProcess. The paper's implementation does not
// produce tentative boundaries, so an SUnion cannot know how soon a bucket
// of tentative tuples is complete; it waits a fixed 300 ms (footnote 5).
const DefaultTentativeWait = 300 * runtime.Millisecond

// SUnionConfig parameterizes an SUnion.
type SUnionConfig struct {
	// Ports is the number of input streams to serialize.
	Ports int
	// BucketSize is the stime width of serialization buckets (§4.2.1).
	BucketSize int64
	// Delay is D, the maximum incremental processing latency assigned to
	// this SUnion (§6.3). Zero means the SUnion never emits tentative
	// data on its own (it still serializes).
	Delay int64
	// SafetyFactor scales Delay (default 0.9, footnote 3).
	SafetyFactor float64
	// TentativeWait is the PolicyProcess bucket wait (default 300 ms).
	TentativeWait int64
	// TentativeBoundaries enables the footnote-5 extension: tentative
	// flushes emit a boundary tagged Src=1, letting downstream SUnions
	// release tentative buckets as soon as they are tentatively
	// complete instead of waiting TentativeWait per node. Off by
	// default, matching the paper's measured implementation.
	TentativeBoundaries bool
}

func (c *SUnionConfig) normalize() {
	if c.Ports < 1 {
		panic("operator: SUnion needs at least one port")
	}
	if c.BucketSize <= 0 {
		panic("operator: SUnion bucket size must be positive")
	}
	if c.SafetyFactor <= 0 || c.SafetyFactor > 1 {
		c.SafetyFactor = DefaultSafetyFactor
	}
	if c.TentativeWait <= 0 {
		c.TentativeWait = DefaultTentativeWait
	}
}

// sunionBucket is one serialization bucket. Buckets live in the SUnion's
// ordered index while pending and on a free list once emitted, so the
// steady-state bucket churn reuses both the structs and their Tuples
// backing arrays.
type sunionBucket struct {
	Start        int64
	Tuples       []tuple.Tuple
	FirstArrival int64
	HasTentative bool
	next         *sunionBucket // free-list link
}

// SUnion is the data-serializing operator of §4.2: it buffers tuples from
// its input streams into stime buckets, uses boundary tuples to decide when
// a bucket is stable, and emits stable buckets in a deterministic order so
// that all replicas of a query diagram process identical sequences.
//
// SUnion is also where DPC's availability/consistency trade-off lives
// (§4.3, §6): when the node detects a failure it switches the SUnion into a
// DelayPolicy; buckets that cannot stabilize are then emitted TENTATIVE once
// the policy releases them, after an initial suspension of 0.9·D measured
// from the arrival of the oldest unprocessed tuple.
type SUnion struct {
	Base
	cfg SUnionConfig

	// Checkpointed state. buckets is an ordered index: sorted ascending
	// by Start, every entry at or past the cursor and non-empty, so the
	// earliest pending bucket is always buckets[0] and pump never scans.
	bounds      []int64 // latest boundary stime per port
	buckets     []*sunionBucket
	cursor      int64 // start of the next bucket to emit
	sentBound   int64
	recDoneSeen []bool

	bfree *sunionBucket // recycled buckets
	// maxLen is the length of the largest bucket emitted so far: a new
	// bucket starts with that capacity instead of doubling up to it.
	maxLen int
	// runEnd, runPos and runOut are emitBucket's per-port scratch for
	// splitting an out-of-order bucket into port runs and merging them
	// back.
	runEnd, runPos []int
	runOut         []bool

	// loaned is the bucket whose Tuples array is out on loan to the engine
	// as a stage frame (emitBucket's EmitLoan was taken). It is recycled at
	// the next ProcessBatch entry — the earliest point provably after the
	// engine consumed the frame — never mid-dispatch, where a refill by a
	// later insert of the same call would corrupt the frame.
	loaned *sunionBucket

	// Runtime state, deliberately NOT checkpointed: failure handling is
	// re-established by the node controller after a restore.
	policy        DelayPolicy
	tentAllowedAt int64 // initial-suspension gate (PolicyProcess)
	// tentBounds are per-port tentative watermarks (footnote 5): they
	// bound the tentative stream's progress, never its final content,
	// so they are runtime state and reset on restore.
	tentBounds    []int64
	sentTentBound int64
	timer         runtime.Timer
	signaled      bool
	pumping       bool
	repump        bool
	droppedLate   uint64
	droppedUndo   uint64
}

// NewSUnion builds an SUnion.
func NewSUnion(name string, cfg SUnionConfig) *SUnion {
	cfg.normalize()
	s := &SUnion{
		Base:          NewBase(name),
		cfg:           cfg,
		bounds:        make([]int64, cfg.Ports),
		tentBounds:    make([]int64, cfg.Ports),
		sentBound:     -1,
		sentTentBound: -1,
		recDoneSeen:   make([]bool, cfg.Ports),
		runEnd:        make([]int, cfg.Ports),
		runPos:        make([]int, cfg.Ports),
		runOut:        make([]bool, cfg.Ports),
	}
	for i := range s.bounds {
		s.bounds[i] = -1
		s.tentBounds[i] = -1
	}
	return s
}

// Inputs returns the number of serialized input streams.
func (s *SUnion) Inputs() int { return s.cfg.Ports }

// Config returns the SUnion's configuration.
func (s *SUnion) Config() SUnionConfig { return s.cfg }

// DroppedLate reports tuples discarded because their bucket had already
// been emitted (paper footnote 6: a few tentative tuples are typically
// dropped around switches and flushes).
func (s *SUnion) DroppedLate() uint64 { return s.droppedLate }

// Policy returns the currently applied delay policy.
func (s *SUnion) Policy() DelayPolicy { return s.policy }

// PendingBuckets reports how many buckets are buffered and unemitted.
func (s *SUnion) PendingBuckets() int { return len(s.buckets) }

// OldestPendingArrival returns the virtual arrival time of the oldest
// buffered tuple, or now if nothing is buffered. The node controller uses
// it to anchor the initial suspension (§2.3.1: tuples must be processed
// within D of their arrival).
func (s *SUnion) OldestPendingArrival() int64 {
	oldest := int64(-1)
	for _, b := range s.buckets {
		if oldest < 0 || b.FirstArrival < oldest {
			oldest = b.FirstArrival
		}
	}
	if oldest < 0 {
		return s.Now()
	}
	return oldest
}

// SetPolicy switches the SUnion's failure-handling mode. The node
// controller calls it on every DPC state transition. Entering a tentative-
// emitting policy from PolicyNone starts the initial suspension: tentative
// emission is not allowed before oldest-pending-arrival + 0.9·D.
func (s *SUnion) SetPolicy(p DelayPolicy) {
	if p == s.policy {
		return
	}
	prev := s.policy
	s.policy = p
	if p == PolicyNone {
		s.signaled = false
		s.stopTimer()
		return
	}
	if prev == PolicyNone {
		base := s.OldestPendingArrival()
		if now := s.Now(); now < base {
			base = now
		}
		s.tentAllowedAt = base + s.delayBudget()
		if !s.signaled {
			s.signaled = true
			if env := s.Env(); env != nil && env.Signal != nil {
				env.Signal(Signal{Kind: SigUpFailure, Op: s.Name()})
			}
		}
	}
	s.pump()
}

func (s *SUnion) delayBudget() int64 {
	return int64(float64(s.cfg.Delay) * s.cfg.SafetyFactor)
}

func (s *SUnion) bucketStart(stime int64) int64 {
	b := stime / s.cfg.BucketSize * s.cfg.BucketSize
	if stime < 0 && stime%s.cfg.BucketSize != 0 {
		b -= s.cfg.BucketSize
	}
	return b
}

// FreshCount reports how many tuples of a prospective batch would actually
// enter serialization buckets (stime at or beyond the emission cursor).
// Tuples behind the cursor are dropped in O(1) without touching any
// operator, so the engine's capacity model should not charge full
// processing cost for them — e.g. a source replay arriving on the live path
// after its region was already flushed tentatively.
func (s *SUnion) FreshCount(ts []tuple.Tuple) int {
	n := 0
	for _, t := range ts {
		if t.IsData() && s.bucketStart(t.STime) >= s.cursor {
			n++
		}
	}
	return n
}

// allocBucket takes a bucket from the free list, or makes one with room
// for the largest bucket emitted so far.
func (s *SUnion) allocBucket(start int64) *sunionBucket {
	b := s.bfree
	if b == nil {
		b = &sunionBucket{Tuples: make([]tuple.Tuple, 0, s.maxLen)}
	} else {
		s.bfree = b.next
		b.next = nil
	}
	b.Start = start
	b.Tuples = b.Tuples[:0]
	b.FirstArrival = 0
	b.HasTentative = false
	return b
}

// freeBucket recycles an emitted bucket. The slots are not cleared: the
// array pins the previous bucket's payloads until refilled, bounded by the
// free list's handful of buckets — cheaper than a per-bucket memclr on the
// hot path.
func (s *SUnion) freeBucket(b *sunionBucket) {
	b.Tuples = b.Tuples[:0]
	b.next = s.bfree
	s.bfree = b
}

// reclaimLoan returns the parked loaned bucket (if any) to the free list.
// Called only from points that are outside any dispatch that could still
// alias the bucket's array: ProcessBatch entry and Restore.
func (s *SUnion) reclaimLoan() {
	if s.loaned != nil {
		s.freeBucket(s.loaned)
		s.loaned = nil
	}
}

// getBucket returns the bucket starting at start, creating and inserting it
// in order if absent. The fast path — stimes mostly increase — touches only
// the last entry.
func (s *SUnion) getBucket(start int64) *sunionBucket {
	n := len(s.buckets)
	if n > 0 {
		if last := s.buckets[n-1]; last.Start == start {
			return last
		} else if last.Start < start {
			b := s.allocBucket(start)
			s.buckets = append(s.buckets, b)
			return b
		}
	} else {
		b := s.allocBucket(start)
		s.buckets = append(s.buckets, b)
		return b
	}
	i := sort.Search(n, func(i int) bool { return s.buckets[i].Start >= start })
	if i < n && s.buckets[i].Start == start {
		return s.buckets[i]
	}
	b := s.allocBucket(start)
	s.buckets = append(s.buckets, nil)
	copy(s.buckets[i+1:], s.buckets[i:])
	s.buckets[i] = b
	return b
}

// popFront removes the earliest bucket from the index, keeping capacity.
func (s *SUnion) popFront() {
	n := len(s.buckets)
	copy(s.buckets, s.buckets[1:])
	s.buckets[n-1] = nil
	s.buckets = s.buckets[:n-1]
}

// Process consumes a tuple on the given port.
func (s *SUnion) Process(port int, t tuple.Tuple) {
	tuple.CheckTupleNotReturned("SUnion.Process", t)
	switch {
	case t.IsData():
		start := s.bucketStart(t.STime)
		if start < s.cursor {
			s.droppedLate++
			return
		}
		b := s.getBucket(start)
		if len(b.Tuples) == 0 {
			b.FirstArrival = s.Now()
		}
		t.Src = int32(port)
		b.Tuples = append(b.Tuples, t)
		if t.Type == tuple.Tentative {
			b.HasTentative = true
		}
		s.pump()
	case t.Type == tuple.Boundary:
		if t.Src == 1 {
			// Tentative boundary (footnote 5): bounds the progress
			// of a diverged upstream's tentative stream.
			if t.STime > s.tentBounds[port] {
				s.tentBounds[port] = t.STime
				s.pump()
			}
			return
		}
		if t.STime > s.bounds[port] {
			s.bounds[port] = t.STime
			s.pump()
		}
	case t.Type == tuple.RecDone:
		s.recDoneSeen[port] = true
		for _, ok := range s.recDoneSeen {
			if !ok {
				return
			}
		}
		for i := range s.recDoneSeen {
			s.recDoneSeen[i] = false
		}
		s.Emit(t)
	case t.Type == tuple.Undo:
		// In the node-wide checkpoint/redo scheme (§4.4.1) undo tuples
		// are consumed by the Input Manager before the diagram; an
		// undo reaching an SUnion is counted and dropped.
		s.droppedUndo++
	}
}

// stableThrough returns the stime up to which every port's boundaries have
// advanced: all buckets ending at or before it hold their final content.
func (s *SUnion) stableThrough() int64 {
	min := s.bounds[0]
	for _, b := range s.bounds[1:] {
		if b < min {
			min = b
		}
	}
	return min
}

// pump emits every bucket that is ready, in bucket order: stable buckets as
// soon as boundaries prove them complete, unstable buckets when the current
// policy releases them. It then (re)arms the flush timer for the next
// pending bucket, if any. Reentrant calls (an emission's downstream effects
// reaching back into this operator) are deferred to the outer invocation so
// the bucket being emitted is never mutated mid-flight.
func (s *SUnion) pump() {
	if s.pumping {
		s.repump = true
		return
	}
	s.pumping = true
	for {
		s.repump = false
		s.pumpOnce()
		if !s.repump {
			break
		}
	}
	s.pumping = false
}

func (s *SUnion) pumpOnce() {
	stable := s.stableThrough()
	now := s.Now()
	advanced := false
	armed := false
	for {
		end := s.cursor + s.cfg.BucketSize
		var b *sunionBucket
		if len(s.buckets) > 0 && s.buckets[0].Start == s.cursor {
			b = s.buckets[0]
		}
		if b == nil {
			if stable >= end {
				// Gap at the cursor: every absent bucket below the
				// stable watermark is trivially stable and empty.
				// Jump the cursor over the whole run instead of
				// stepping one bucket width at a time.
				target := s.bucketStart(stable)
				if len(s.buckets) > 0 && s.buckets[0].Start < target {
					target = s.buckets[0].Start
				}
				s.cursor = target
				advanced = true
				continue
			}
		} else if stable >= end && !b.HasTentative {
			// Stable bucket. Under PolicyDelay even stable-ready
			// data is held for 0.9·D (§6: "continuously delaying
			// new tuples as much as possible"): if the node's
			// reconciliation grant arrives within the hold, these
			// tuples are never emitted under divergence at all.
			if s.policy == PolicyDelay {
				if due := b.FirstArrival + s.delayBudget(); now < due {
					s.armTimer(due)
					armed = true
					break
				}
			}
			// Emit sorted, final content.
			s.popFront()
			s.cursor = end
			advanced = true
			s.emitBucket(b, false)
			continue
		}
		if s.policy == PolicyNone || s.policy == PolicySuspend {
			break
		}
		// Tentative path: the earliest pending bucket is the front of
		// the ordered index; absent buckets in front of it are skipped
		// when it releases.
		if len(s.buckets) == 0 {
			break
		}
		lead := s.buckets[0]
		due := s.releaseAt(lead)
		if now < due {
			s.armTimer(due)
			armed = true
			break
		}
		s.popFront()
		s.cursor = lead.Start + s.cfg.BucketSize
		advanced = true
		s.emitBucket(lead, true)
	}
	if advanced || stable > s.sentBound {
		// Forward the punctuation watermark: never beyond the cursor
		// (unemitted buckets may still change) and never backwards.
		wm := stable
		if s.cursor < wm {
			wm = s.cursor
		}
		if wm > s.sentBound {
			s.sentBound = wm
			s.Emit(tuple.NewBoundary(wm))
		}
	}
	if s.cfg.TentativeBoundaries && advanced && s.cursor > s.sentBound && s.cursor > s.sentTentBound {
		// Tentative flushes advanced the cursor past the stable
		// watermark: bound the tentative stream for downstream
		// SUnions (footnote 5).
		s.sentTentBound = s.cursor
		tb := tuple.NewBoundary(s.cursor)
		tb.Src = 1
		s.Emit(tb)
	}
	if !armed {
		s.stopTimer()
	}
}

// tentativelyComplete reports whether every port's combined watermark
// (stable or tentative) covers the bucket: with tentative boundaries on,
// such a bucket can be flushed without the fixed TentativeWait.
func (s *SUnion) tentativelyComplete(start int64) bool {
	end := start + s.cfg.BucketSize
	for i := range s.bounds {
		wm := s.bounds[i]
		if s.tentBounds[i] > wm {
			wm = s.tentBounds[i]
		}
		if wm < end {
			return false
		}
	}
	return true
}

// releaseAt computes when the policy allows a bucket's tentative emission.
func (s *SUnion) releaseAt(b *sunionBucket) int64 {
	switch s.policy {
	case PolicyDelay:
		return b.FirstArrival + s.delayBudget()
	case PolicyProcess:
		at := b.FirstArrival + s.cfg.TentativeWait
		if s.tentativelyComplete(b.Start) {
			// Footnote 5: tentative boundaries prove the bucket
			// complete; no need for the fixed wait.
			at = s.Now()
		}
		if at < s.tentAllowedAt {
			at = s.tentAllowedAt
		}
		return at
	}
	return int64(1) << 62
}

// emitBucket sorts, emits, and recycles one bucket. Tentative buckets are
// emitted with every data tuple marked TENTATIVE (§4.1: results from
// processing a subset of inputs).
func (s *SUnion) emitBucket(b *sunionBucket, tentative bool) {
	// The order is slices.SortStableFunc(b.Tuples, tuple.Compare): a stable
	// sort keeps arrival order for fully-tied tuples, which is itself
	// deterministic because every upstream SUnion emits a deterministic
	// sequence. Buckets fed by in-order upstreams usually arrive already
	// sorted, so a linear pre-scan skips the sort; the rest interleave
	// ports whose own tuples arrived in order, and mergePorts restores
	// the order in linear time.
	if n := len(b.Tuples); n > s.maxLen {
		s.maxLen = n
	}
	if !inOrder(b.Tuples) {
		s.mergePorts(b.Tuples)
	}
	if tentative {
		for _, t := range b.Tuples {
			s.Emit(t.AsTentative())
		}
		s.freeBucket(b)
		return
	}
	// Stable buckets go downstream as one bulk emission. When the engine
	// takes the loan (aliases b.Tuples as its stage frame) the bucket is
	// parked on s.loaned instead of the free list: freeing it now would let
	// a later insert of the same dispatch refill the array mid-loan. At
	// most one loan can be outstanding — the engine only loans the first
	// emission of a dispatch, and every dispatch starts by reclaiming — so
	// a plain overwrite never leaks more than to the garbage collector.
	if s.EmitLoan(b.Tuples) {
		s.loaned = b
		return
	}
	s.freeBucket(b)
}

// inOrder reports whether ts is sorted by tuple.Compare. It decides each
// pair as Compare does — stime, then src, then id — through pointers, so the
// stime ties synchronized sources emit in plenty copy no tuple; only a full
// tie pays the comparator, for the payload.
func inOrder(ts []tuple.Tuple) bool {
	for i := 1; i < len(ts); i++ {
		a, c := &ts[i-1], &ts[i]
		var sorted bool
		if a.STime != c.STime {
			sorted = a.STime < c.STime
		} else if a.Src != c.Src {
			sorted = a.Src < c.Src
		} else if a.ID != c.ID {
			sorted = a.ID < c.ID
		} else {
			sorted = tuple.Compare(*a, *c) <= 0
		}
		if !sorted {
			return false
		}
	}
	return true
}

// mergePorts puts an out-of-order bucket in slices.SortStableFunc's order
// for tuple.Compare. Tuples of different ports never tie under Compare —
// their Src differs — so the stable order is the merge of the ports' own
// stable orders: the bucket is split stably by port into a scratch array
// from the bucket free list, a port run is sorted only if it arrived out of
// order, and the runs merge back into ts on (stime, port).
func (s *SUnion) mergePorts(ts []tuple.Tuple) {
	end, pos, out := s.runEnd, s.runPos, s.runOut
	for p := range end {
		end[p], pos[p], out[p] = 0, -1, false
	}
	// Count each port's tuples, and check they arrived in order: within a
	// port, Compare decides on stime, then id, then the payload.
	for i := range ts {
		c := &ts[i]
		p := c.Src
		if last := pos[p]; last >= 0 {
			a := &ts[last]
			if a.STime > c.STime || a.STime == c.STime && (a.ID > c.ID || a.ID == c.ID && tuple.Compare(*a, *c) > 0) {
				out[p] = true
			}
		}
		pos[p] = i
		end[p]++
	}
	at := 0
	for p, n := range end {
		pos[p] = at
		at += n
		end[p] = at
	}
	scratch := s.allocBucket(0)
	runs := slices.Grow(scratch.Tuples, len(ts))[:len(ts)]
	for i := range ts {
		p := ts[i].Src
		runs[pos[p]] = ts[i]
		pos[p]++
	}
	from := 0
	for p := range pos {
		pos[p] = from
		if out[p] {
			slices.SortStableFunc(runs[from:end[p]], tuple.Compare)
		}
		from = end[p]
	}
	// Merge: take the run whose head is least on (stime, port), and copy
	// from it every tuple still ahead of the runner-up's head in one piece.
	k := 0
	for {
		best, next := -1, -1
		for p := range pos {
			if pos[p] == end[p] {
				continue
			}
			if best < 0 || runs[pos[p]].STime < runs[pos[best]].STime {
				best, next = p, best
			} else if next < 0 || runs[pos[p]].STime < runs[pos[next]].STime {
				next = p
			}
		}
		if best < 0 {
			break
		}
		i, j := pos[best], end[best]
		if next >= 0 {
			lim := runs[pos[next]].STime
			j = i + 1
			for j < end[best] && (runs[j].STime < lim || runs[j].STime == lim && best < next) {
				j++
			}
		}
		k += copy(ts[k:], runs[i:j])
		pos[best] = j
	}
	scratch.Tuples = runs
	s.freeBucket(scratch)
}

func (s *SUnion) armTimer(at int64) {
	if s.timer != nil && !s.timer.Stopped() && s.timer.When() == at {
		return
	}
	s.stopTimer()
	env := s.Env()
	if env == nil || env.After == nil || env.Now == nil {
		return
	}
	d := at - env.Now()
	s.timer = env.After(d, func() {
		s.timer = nil
		s.pump()
	})
}

func (s *SUnion) stopTimer() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

type sunionState struct {
	Bounds      []int64
	Buckets     []sunionBucket // ascending by Start
	Cursor      int64
	SentBound   int64
	RecDoneSeen []bool
}

// Checkpoint deep-copies the serialization state. Policy, suspension gates
// and timers are runtime state: the node controller re-establishes them
// after a restore based on which failures are still active.
func (s *SUnion) Checkpoint() any {
	bk := make([]sunionBucket, len(s.buckets))
	for i, b := range s.buckets {
		bk[i] = sunionBucket{
			Start:        b.Start,
			Tuples:       slices.Clone(b.Tuples),
			FirstArrival: b.FirstArrival,
			HasTentative: b.HasTentative,
		}
	}
	return sunionState{
		Bounds:      append([]int64(nil), s.bounds...),
		Buckets:     bk,
		Cursor:      s.cursor,
		SentBound:   s.sentBound,
		RecDoneSeen: append([]bool(nil), s.recDoneSeen...),
	}
}

// Restore reinstates a snapshot and cancels any pending flush timer.
func (s *SUnion) Restore(snap any) {
	s.reclaimLoan()
	st := snap.(sunionState)
	copy(s.bounds, st.Bounds)
	for _, b := range s.buckets {
		s.freeBucket(b)
	}
	s.buckets = s.buckets[:0]
	for i := range st.Buckets {
		b := s.allocBucket(st.Buckets[i].Start)
		b.Tuples = append(b.Tuples, st.Buckets[i].Tuples...)
		b.FirstArrival = st.Buckets[i].FirstArrival
		b.HasTentative = st.Buckets[i].HasTentative
		s.buckets = append(s.buckets, b)
	}
	s.cursor = st.Cursor
	s.sentBound = st.SentBound
	copy(s.recDoneSeen, st.RecDoneSeen)
	s.stopTimer()
	s.signaled = false
	for i := range s.tentBounds {
		s.tentBounds[i] = -1
	}
	s.sentTentBound = -1
}

// RevokeTentative removes buffered tentative tuples from the pending
// buckets — every port when port is negative, one port otherwise — and
// recomputes the per-bucket tentative flags. The node controller calls
// this when an upstream's UNDO revokes its tentative suffix: the arrival
// log is patched separately, but tuples already buffered in a bucket
// would otherwise sit there forever (tentative content blocks stable
// emission, and only this revocation or a checkpoint rollback removes
// it).
func (s *SUnion) RevokeTentative(port int) {
	for _, b := range s.buckets {
		if !b.HasTentative {
			continue
		}
		kept := b.Tuples[:0]
		has := false
		for _, t := range b.Tuples {
			if t.Type == tuple.Tentative && (port < 0 || t.Src == int32(port)) {
				continue
			}
			if t.Type == tuple.Tentative {
				has = true
			}
			kept = append(kept, t)
		}
		clear(b.Tuples[len(kept):])
		b.Tuples = kept
		b.HasTentative = has
	}
}

// HasPendingTentative reports whether any pending bucket buffers
// tentative content. The node controller consults this on heal: a bucket
// holding tentative tuples can never be emitted stable, so even if
// nothing tentative left the node (no divergence), the failure is not
// maskable — only a checkpoint-restore-and-replay reconciliation rolls
// the poisoned buckets back.
func (s *SUnion) HasPendingTentative() bool {
	for _, b := range s.buckets {
		if b.HasTentative {
			return true
		}
	}
	return false
}
