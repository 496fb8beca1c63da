package node

import "borealis/internal/tuple"

// obSegSize is the length, in tuples, of one segment of a segmented tuple
// log (48 KiB at 48 bytes a tuple). A power of two, so a log position splits
// into segment and slot with a shift and a mask. Past the runtime's 32 KiB
// small-object limit a segment costs exactly its size: a 512-tuple segment
// plus the allocation header of an object holding pointers rounds up to a
// 27 KiB size class, 11 % more than the tuples it holds.
const obSegSize = 1024

// obSegment is one fixed-size block of a segmented tuple log.
type obSegment [obSegSize]tuple.Tuple

// segLog is a segmented tuple log: live tuple i sits at log position head+i,
// counted from the first slot of segs[0]. Every segment but the last is full
// and head < obSegSize, so appending fills the tail segment and never
// recopies anything, however long the log grows. Every slot outside the live
// range is zero: truncation clears the slots it drops and moves each segment
// it empties onto free, where the next append takes it back. OutputBuffer
// keeps its contents in one; TupleLog wraps one for the client's view.
type segLog struct {
	segs []*obSegment
	head int
	n    int
	free []*obSegment
}

// at returns live tuple i.
func (l *segLog) at(i int) *tuple.Tuple {
	p := l.head + i
	return &l.segs[p/obSegSize][p%obSegSize]
}

// tail returns the slots free in the tail segment, taking a new segment
// when the tail is full (or there is none yet).
func (l *segLog) tail() []tuple.Tuple {
	p := l.head + l.n
	if p == len(l.segs)*obSegSize {
		var s *obSegment
		if k := len(l.free); k > 0 {
			s = l.free[k-1]
			l.free[k-1] = nil
			l.free = l.free[:k-1]
		} else {
			s = new(obSegment)
		}
		l.segs = append(l.segs, s)
	}
	return l.segs[p/obSegSize][p%obSegSize:]
}

// push appends one tuple to the log.
func (l *segLog) push(t tuple.Tuple) {
	l.tail()[0] = t
	l.n++
}

// pushAll appends a batch to the log, one copy per segment it reaches.
func (l *segLog) pushAll(ts []tuple.Tuple) {
	for len(ts) > 0 {
		k := copy(l.tail(), ts)
		l.n += k
		ts = ts[k:]
	}
}

// copyOut copies live tuples i, i+1, … into dst until dst is full.
func (l *segLog) copyOut(dst []tuple.Tuple, i int) {
	for p := l.head + i; len(dst) > 0; {
		k := copy(dst, l.segs[p/obSegSize][p%obSegSize:])
		dst = dst[k:]
		p += k
	}
}

// chunks calls fn with the live tuples in order, one slice per segment.
func (l *segLog) chunks(fn func(ts []tuple.Tuple)) {
	for p, end := l.head, l.head+l.n; p < end; {
		lo := p % obSegSize
		hi := min(obSegSize, lo+end-p)
		fn(l.segs[p/obSegSize][lo:hi])
		p += hi - lo
	}
}

// clearLive zeroes live slots [i, j), so dropped tuples do not pin their
// payloads.
func (l *segLog) clearLive(i, j int) {
	for p, end := l.head+i, l.head+j; p < end; {
		lo := p % obSegSize
		hi := min(obSegSize, lo+end-p)
		clear(l.segs[p/obSegSize][lo:hi])
		p += hi - lo
	}
}

// recycle moves segs[from:to] — segments with no live slot, already
// cleared — onto the free list and closes the gap in segs.
func (l *segLog) recycle(from, to int) {
	l.free = append(l.free, l.segs[from:to]...)
	m := from + copy(l.segs[from:], l.segs[to:])
	clear(l.segs[m:])
	l.segs = l.segs[:m]
}

// dropHead discards the k oldest live tuples.
func (l *segLog) dropHead(k int) {
	l.clearLive(0, k)
	l.head += k
	l.n -= k
	if full := l.head / obSegSize; full > 0 {
		l.recycle(0, full)
		l.head -= full * obSegSize
	}
}

// truncate keeps the k oldest live tuples and deletes the rest.
func (l *segLog) truncate(k int) {
	l.clearLive(k, l.n)
	l.n = k
	l.recycle((l.head+k+obSegSize-1)/obSegSize, len(l.segs))
}

// undo compacts the log for an UNDO with the given last-good id, with
// tuple.ApplyUndo's semantics: keep everything up to the last stable
// Insertion carrying the id; without one, keep nothing for id 0 and strip
// the tentative tuples otherwise.
func (l *segLog) undo(lastGoodID uint64) {
	for i := l.n - 1; i >= 0; i-- {
		if t := l.at(i); t.ID == lastGoodID && t.Type == tuple.Insertion {
			l.truncate(i + 1)
			return
		}
	}
	if lastGoodID == 0 {
		l.truncate(0)
		return
	}
	kept := 0
	for i := 0; i < l.n; i++ {
		if t := l.at(i); t.Type != tuple.Tentative {
			*l.at(kept) = *t
			kept++
		}
	}
	l.truncate(kept)
}

// TupleLog is an unbounded tuple log that compacts on UNDO exactly as
// tuple.ApplyUndo does, kept in the same fixed segments as an OutputBuffer's
// contents: it grows without ever recopying what it holds, and an UNDO frees
// the segments it empties for the next appends. The client keeps its
// undo-compacted view of the delivered stream in one.
type TupleLog struct{ segLog }

// Len returns the number of tuples in the log.
func (l *TupleLog) Len() int { return l.n }

// Append adds t at the end of the log.
func (l *TupleLog) Append(t tuple.Tuple) { l.push(t) }

// Undo deletes the suffix an UNDO with the given last-good id revokes (see
// tuple.ApplyUndo).
func (l *TupleLog) Undo(lastGoodID uint64) { l.undo(lastGoodID) }

// Chunks calls fn with the log's tuples in order, one slice per segment. The
// slices alias the log: fn must neither modify nor retain them.
func (l *TupleLog) Chunks(fn func(ts []tuple.Tuple)) { l.chunks(fn) }
