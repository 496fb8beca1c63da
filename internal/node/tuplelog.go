package node

import "borealis/internal/tuple"

// obSegSize is the length, in tuples, of every segment of a tuple log
// (48 KiB at 48 bytes a tuple). Past the runtime's 32 KiB small-object
// limit a segment costs exactly its size: a 512-tuple segment plus the
// allocation header of an object holding pointers rounds up to a 27 KiB
// size class, 11 % more than the tuples it holds.
const obSegSize = 1024

// logRun is one stretch of a log's live tuples: a window of a segment.
type logRun struct {
	ts  []tuple.Tuple
	seg []tuple.Tuple // the whole segment ts lies in
}

// TupleLog is a tuple log kept as a sequence of runs. Appends go to
// segments, fixed-size blocks the log lends from its pool: the last run
// takes them while its segment has room, then a segment from the pool
// starts a new run, so appending never recopies anything, however long the
// log grows. A segment belongs to one run and every slot outside that
// run's window is zero: truncation clears the slots it drops and returns
// each segment it empties to the pool, where the next append — of this log
// or another log of the same owner — takes it back. Every run but the last
// reaches the end of its segment, so no segment is kept for a few tuples.
// An UNDO compacts the log exactly as tuple.ApplyUndo does.
//
// An OutputBuffer keeps its contents in one, an InputManager its arrival
// log and the client its view of the delivered stream; a node's buffers and
// arrival logs share one pool. The zero value is an empty log without a
// pool: it allocates every segment and leaves the ones it empties to the
// garbage collector.
type TupleLog struct {
	runs []logRun
	n    int
	// pool lends the segments and takes back the emptied ones; every
	// array in it is zero.
	pool *tuple.LoanPool
	// base is the whole array runs lies in. Dropping head runs only moves
	// runs past them; once runs reaches the end of base, addRun moves them
	// back to its start if that frees room for a quarter of them or more,
	// and otherwise grows it as append does, so runs that come and go in
	// order are moved O(1) times each.
	base []logRun
}

// NewTupleLog returns an empty log whose segments pool lends.
func NewTupleLog(pool *tuple.LoanPool) TupleLog { return TupleLog{pool: pool} }

// Len returns the number of tuples in the log.
func (l *TupleLog) Len() int { return l.n }

// addRun appends r to the runs and returns it.
func (l *TupleLog) addRun(r logRun) *logRun {
	k := len(l.runs)
	full := k == cap(l.runs)
	if dead := len(l.base) - k; full && dead > 0 && 4*dead >= k {
		clear(l.base[copy(l.base, l.runs):])
		l.runs, full = l.base[:k], false
	}
	l.runs = append(l.runs, r)
	if full {
		l.base = l.runs[:cap(l.runs)]
	}
	return &l.runs[k]
}

// room returns the last run when its segment has a free slot, and
// otherwise starts a new run on a segment from the pool.
func (l *TupleLog) room() *logRun {
	if k := len(l.runs); k > 0 {
		if r := &l.runs[k-1]; len(r.ts) < cap(r.ts) {
			return r
		}
	}
	s := l.pool.Lend(obSegSize)[:obSegSize:obSegSize]
	return l.addRun(logRun{ts: s[:0], seg: s})
}

// Append adds t at the end of the log.
func (l *TupleLog) Append(t tuple.Tuple) {
	r := l.room()
	r.ts = append(r.ts, t) // within the segment: never reallocates
	l.n++
}

// appendAll adds a batch at the end of the log, one copy per segment it
// reaches.
func (l *TupleLog) appendAll(ts []tuple.Tuple) {
	for len(ts) > 0 {
		r := l.room()
		k := min(len(ts), cap(r.ts)-len(r.ts))
		r.ts = append(r.ts, ts[:k]...)
		l.n += k
		ts = ts[k:]
	}
}

// seek returns the run holding live tuple i and i's offset in that run,
// walking from whichever end of the log is nearer; i == n gives
// (len(runs), 0).
func (l *TupleLog) seek(i int) (int, int) {
	if i >= l.n {
		return len(l.runs), 0
	}
	if i < l.n/2 {
		for r := range l.runs {
			k := len(l.runs[r].ts)
			if i < k {
				return r, i
			}
			i -= k
		}
	}
	j := l.n
	for r := len(l.runs) - 1; r >= 0; r-- {
		if j -= len(l.runs[r].ts); j <= i {
			return r, i - j
		}
	}
	panic("TupleLog: run lengths do not add up to n")
}

// copyOut copies live tuples i, i+1, … into dst until dst is full.
func (l *TupleLog) copyOut(dst []tuple.Tuple, i int) {
	for r, off := l.seek(i); len(dst) > 0; r, off = r+1, 0 {
		dst = dst[copy(dst, l.runs[r].ts[off:]):]
	}
}

// Chunks calls fn with the live tuples in order, one slice per run. The
// slices alias the log: fn must neither modify nor retain them.
func (l *TupleLog) Chunks(fn func(ts []tuple.Tuple)) {
	for r := range l.runs {
		fn(l.runs[r].ts)
	}
}

// lastIndex returns the index of the newest live tuple match accepts, or -1.
func (l *TupleLog) lastIndex(match func(t *tuple.Tuple) bool) int {
	i := l.n
	for r := len(l.runs) - 1; r >= 0; r-- {
		ts := l.runs[r].ts
		i -= len(ts)
		for j := len(ts) - 1; j >= 0; j-- {
			if match(&ts[j]) {
				return i + j
			}
		}
	}
	return -1
}

// release gives up a whole run: its segment is cleared and goes back to
// the pool.
func (l *TupleLog) release(r *logRun) {
	clear(r.ts)
	l.pool.Return(r.seg)
}

// takeRuns empties the log and hands its tuples over, one whole segment per
// run holding the run at its start: the caller owns the segments, and
// returns each to the pool cleared, or to nobody. It is for arrival logs,
// which never drop their head, so every run starts at its segment's start.
func (l *TupleLog) takeRuns() [][]tuple.Tuple {
	out := make([][]tuple.Tuple, len(l.runs))
	for i := range l.runs {
		r := &l.runs[i]
		if cap(r.ts) != len(r.seg) {
			panic("TupleLog.takeRuns: a run whose head was dropped")
		}
		out[i] = r.seg[:len(r.ts)]
	}
	clear(l.runs)
	l.runs = l.runs[:0]
	l.n = 0
	return out
}

// dropHead discards the k oldest live tuples; the segments it empties go
// back to the pool for the next appends.
func (l *TupleLog) dropHead(k int) {
	l.n -= k
	r := 0
	for ; k > 0; r++ {
		run := &l.runs[r]
		if k < len(run.ts) {
			clear(run.ts[:k])
			run.ts = run.ts[k:]
			break
		}
		k -= len(run.ts)
		l.release(run)
	}
	clear(l.runs[:r])
	l.runs = l.runs[r:]
}

// truncate keeps the k oldest live tuples and deletes the rest.
func (l *TupleLog) truncate(k int) {
	r, off := l.seek(k)
	if off > 0 {
		run := &l.runs[r]
		clear(run.ts[off:])
		run.ts = run.ts[:off]
		r++
	}
	l.cutRuns(r)
	l.n = k
}

// cutRuns releases runs[r:] and deletes them.
func (l *TupleLog) cutRuns(r int) {
	for i := r; i < len(l.runs); i++ {
		l.release(&l.runs[i])
	}
	clear(l.runs[r:])
	l.runs = l.runs[:r]
}

// ackCut returns how many of the oldest live tuples an acknowledgment of
// stable ids up to upTo releases: the prefix through the last stable
// Insertion with id ≤ upTo that precedes every data tuple with a larger
// id. Data ids increase along an output stream — SOutput numbers stable
// tuples in order and tentative ones after the last stable id, and the
// log compacts a revoked suffix before its ids are reused — so a run
// whose last data tuple has id ≤ upTo holds no larger id: it is released
// through its last Insertion, found backwards, without a look at the rest.
// Only the run holding the first larger id is walked forward.
func (l *TupleLog) ackCut(upTo uint64) int {
	cut, base := 0, 0 // base: the live index of the run's first tuple
	for r := range l.runs {
		ts := l.runs[r].ts
		last := len(ts) - 1
		for last >= 0 && !ts[last].IsData() {
			last--
		}
		if last < 0 || ts[last].ID <= upTo {
			for j := last; j >= 0; j-- {
				if ts[j].Type == tuple.Insertion {
					cut = base + j + 1
					break
				}
			}
			base += len(ts)
			continue
		}
		for j := range ts {
			t := &ts[j]
			if t.IsData() && t.ID > upTo {
				break
			}
			if t.Type == tuple.Insertion {
				cut = base + j + 1
			}
		}
		break
	}
	return cut
}

// Undo compacts the log for an UNDO with the given last-good id, with
// tuple.ApplyUndo's semantics: keep everything up to the last stable
// Insertion carrying the id; without one, keep nothing for id 0 and strip
// the tentative tuples otherwise.
func (l *TupleLog) Undo(lastGoodID uint64) {
	if i := l.lastIndex(func(t *tuple.Tuple) bool {
		return t.ID == lastGoodID && t.Type == tuple.Insertion
	}); i >= 0 || lastGoodID == 0 {
		l.truncate(i + 1)
		return
	}
	l.stripTentative()
}

// stripTentative deletes the tentative tuples, moving each later tuple down
// in place.
func (l *TupleLog) stripTentative() {
	wr, wo, cut := 0, 0, 0 // the run and offset the next kept tuple moves to; tentative tuples seen
	for r := range l.runs {
		ts := l.runs[r].ts
		for j := range ts {
			if ts[j].Type == tuple.Tentative {
				cut++
				continue
			}
			for wo == len(l.runs[wr].ts) {
				wr, wo = wr+1, 0
			}
			if cut > 0 {
				l.runs[wr].ts[wo] = ts[j]
			}
			wo++
		}
	}
	if cut > 0 {
		l.truncate(l.n - cut)
	}
}
