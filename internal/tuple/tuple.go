// Package tuple defines the DPC data model from §4.1 of the Borealis
// fault-tolerance paper: stream tuples carry a type (INSERTION, TENTATIVE,
// BOUNDARY, UNDO, or REC_DONE), a per-stream identifier, and a timestamp
// (tuple_stime) used for serialization and window computation.
package tuple

import (
	"fmt"
	"strings"
)

// Type is the tuple_type header field.
type Type uint8

const (
	// Insertion is a regular stable tuple.
	Insertion Type = iota
	// Tentative results from processing a subset of inputs and may later
	// be corrected by stable tuples.
	Tentative
	// Boundary promises that all following tuples on the stream have
	// STime greater than or equal to the boundary's STime. Boundaries act
	// as both punctuation and heartbeats.
	Boundary
	// Undo instructs the receiver to delete the suffix of the stream that
	// follows the tuple identified by ID, and to roll back any state
	// derived from it.
	Undo
	// RecDone marks the end of a sequence of corrections produced during
	// state reconciliation.
	RecDone
)

var typeNames = [...]string{"INSERTION", "TENTATIVE", "BOUNDARY", "UNDO", "REC_DONE"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsData reports whether the type carries application data (stable or
// tentative), as opposed to control information.
func (t Type) IsData() bool { return t == Insertion || t == Tentative }

// Tuple is a single stream element.
//
// For Boundary tuples, STime is the promised lower bound. For Undo tuples,
// ID identifies the last tuple NOT to be undone. Src tags the input port a
// tuple entered through when several logical streams are serialized into one
// ordered stream by SUnion; operators such as SJoin use it to route tuples
// internally.
//
// Src sits next to Type so both share one word: a Tuple is 48 bytes, and
// every frame, log, buffer and message array is sized in Tuples. Nothing
// depends on the field order — the wire codec encodes each field explicitly.
type Tuple struct {
	Type  Type
	Src   int32
	ID    uint64
	STime int64
	Data  []int64
}

// NewInsertion returns a stable data tuple.
func NewInsertion(stime int64, data ...int64) Tuple {
	return Tuple{Type: Insertion, STime: stime, Data: data}
}

// NewTentative returns a tentative data tuple.
func NewTentative(stime int64, data ...int64) Tuple {
	return Tuple{Type: Tentative, STime: stime, Data: data}
}

// NewBoundary returns a boundary tuple promising no future tuple has
// STime < stime.
func NewBoundary(stime int64) Tuple {
	return Tuple{Type: Boundary, STime: stime}
}

// NewUndo returns an undo tuple. lastGoodID identifies the last tuple that
// should be kept.
func NewUndo(lastGoodID uint64) Tuple {
	return Tuple{Type: Undo, ID: lastGoodID}
}

// NewRecDone returns a reconciliation-done marker.
func NewRecDone(stime int64) Tuple {
	return Tuple{Type: RecDone, STime: stime}
}

// IsData reports whether the tuple carries application data.
func (t Tuple) IsData() bool { return t.Type.IsData() }

// AsTentative returns a copy of the tuple marked tentative (data tuples
// only; control tuples are returned unchanged).
func (t Tuple) AsTentative() Tuple {
	if t.Type == Insertion {
		t.Type = Tentative
	}
	return t
}

// AsStable returns a copy of the tuple marked stable.
func (t Tuple) AsStable() Tuple {
	if t.Type == Tentative {
		t.Type = Insertion
	}
	return t
}

// Clone returns a deep copy of the tuple (Data is copied).
func (t Tuple) Clone() Tuple {
	c := t
	if t.Data != nil {
		c.Data = make([]int64, len(t.Data))
		copy(c.Data, t.Data)
	}
	return c
}

// Field returns Data[i], or 0 if the index is out of range. Operators use
// it so that malformed tuples degrade predictably instead of panicking.
func (t Tuple) Field(i int) int64 {
	if i < 0 || i >= len(t.Data) {
		return 0
	}
	return t.Data[i]
}

func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{id=%d stime=%d src=%d", t.Type, t.ID, t.STime, t.Src)
	if len(t.Data) > 0 {
		fmt.Fprintf(&b, " data=%v", t.Data)
	}
	b.WriteByte('}')
	return b.String()
}

// Less orders tuples deterministically for serialization: by STime, then
// source port, then ID, then payload. SUnion uses it to sort stable buckets
// so that every replica emits identical sequences; the payload tie-break
// makes the order total even after SUnions deeper in a diagram re-tag Src,
// which can make (STime, Src, ID) collide for tuples of different origins.
func Less(a, b Tuple) bool { return Compare(a, b) < 0 }

// Compare is the three-way form of Less, usable with
// slices.SortStableFunc. The STime comparison comes first and decides the
// vast majority of calls, so sorting a bucket rarely looks past it.
func Compare(a, b Tuple) int {
	if a.STime != b.STime {
		if a.STime < b.STime {
			return -1
		}
		return 1
	}
	if a.Src != b.Src {
		if a.Src < b.Src {
			return -1
		}
		return 1
	}
	if a.ID != b.ID {
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	n := len(a.Data)
	if len(b.Data) < n {
		n = len(b.Data)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != b.Data[i] {
			if a.Data[i] < b.Data[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a.Data) < len(b.Data):
		return -1
	case len(a.Data) > len(b.Data):
		return 1
	}
	return 0
}

// Equal reports whether two tuples are identical in all fields, including
// data. It is used by tests and by the client-side consistency audit.
func Equal(a, b Tuple) bool {
	if a.Type != b.Type || a.ID != b.ID || a.STime != b.STime || a.Src != b.Src {
		return false
	}
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// SameValue reports whether two data tuples carry the same logical value
// (timestamp and payload), ignoring stability, stream position and source
// tags. The eventual-consistency audit uses it to compare a corrected output
// stream against a failure-free reference run.
func SameValue(a, b Tuple) bool {
	if a.STime != b.STime || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// Batch is an ordered group of tuples travelling together over the simulated
// network. Batching keeps the event count proportional to ticks rather than
// tuples.
type Batch struct {
	// Stream names the logical stream the batch belongs to.
	Stream string
	Tuples []Tuple
}

// CountData returns the number of data tuples (stable or tentative) in ts.
func CountData(ts []Tuple) int {
	n := 0
	for _, t := range ts {
		if t.IsData() {
			n++
		}
	}
	return n
}

// Append appends t to a long-lived tuple log, doubling capacity when full.
// The builtin append switches to ~1.25x growth beyond a few thousand
// elements, which recopies a stream log several times more over its life;
// the logs and buffers in this system grow to millions of tuples.
func Append(ts []Tuple, t Tuple) []Tuple {
	if len(ts) == cap(ts) && len(ts) >= 1024 {
		nb := make([]Tuple, len(ts), 2*cap(ts))
		copy(nb, ts)
		ts = nb
	}
	return append(ts, t)
}

// AppendBatch bulk-appends batch to a long-lived tuple log under the same
// doubling growth policy as Append, in one copy.
func AppendBatch(ts, batch []Tuple) []Tuple {
	if need := len(ts) + len(batch); need > cap(ts) && len(ts) >= 1024 {
		nc := 2 * cap(ts)
		for nc < need {
			nc *= 2
		}
		nb := make([]Tuple, len(ts), nc)
		copy(nb, ts)
		ts = nb
	}
	return append(ts, batch...)
}

// FramePool recycles the []Tuple frames the batch data plane stages tuples
// through (engine stage buffers, collected operator emissions). A staged
// dispatch borrows a frame per operator stage and returns it before the
// next batch, so steady-state batch execution allocates no frame memory at
// all. Returned frames are NOT cleared: a pooled frame pins the payloads of
// its previous batch until the slots are overwritten, which is bounded by
// the pool's handful of frames and one batch each — a deliberate trade
// against a per-batch memclr on the hot path.
type FramePool struct {
	free [][]Tuple
}

// Get returns an empty frame with whatever capacity a previous user grew it
// to (fresh frames start at 256 tuples).
func (p *FramePool) Get() []Tuple {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return f
	}
	return make([]Tuple, 0, 256)
}

// Put returns a frame to the pool.
func (p *FramePool) Put(f []Tuple) {
	if cap(f) == 0 {
		return
	}
	p.free = append(p.free, f[:0])
}

// I64Arena chunk-allocates small immutable payload slices. Streams produce
// millions of 1-2 element Data slices that live as long as the logs and
// buffers retaining them; carving them out of shared chunks collapses the
// heap object count (and with it GC scan time) by three orders of
// magnitude. Slices returned by Alloc must not be appended to.
type I64Arena struct {
	chunk []int64
}

// Alloc returns a zeroed n-element slice carved from the current chunk.
func (a *I64Arena) Alloc(n int) []int64 {
	if len(a.chunk) < n {
		sz := 4096
		if n > sz {
			sz = n
		}
		a.chunk = make([]int64, sz)
	}
	p := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return p
}

// ApplyUndo removes from ts the suffix that follows the tuple with the
// given ID, returning the shortened slice. lastGoodID zero names the
// stream origin: everything goes. When no tuple carries the ID — the undo
// refers to a point before the buffered window (a log opened mid-epoch, a
// buffer truncated by acks) — the tentative tuples are removed instead:
// the wire contract is that stable data never follows unrevoked tentative
// data, so the revoked suffix is exactly the tentative content. Returning
// ts unchanged here once left a revoked tentative aggregate in a
// downstream node's arrival log; its reconciliation replayed the tuple
// into a serialization bucket no policy could ever flush, starving the
// stream (found by the scenario fuzzer). The anchor must be a stable
// Insertion, never a Tentative that happens to reuse the id: tentative ids
// are provisional, and an UNDO's last-good id names the stable prefix. An
// earlier version anchored on any data tuple, so when a collision occurred
// the revoked tentative suffix survived the patch, resurrected into
// re-derived serialization buckets, and wedged the stable cursor for good
// (corpus scenario crash-inside-partition).
func ApplyUndo(ts []Tuple, lastGoodID uint64) []Tuple {
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].ID == lastGoodID && ts[i].Type == Insertion {
			return ts[:i+1]
		}
	}
	if lastGoodID == 0 {
		return ts[:0]
	}
	kept := ts[:0]
	for _, t := range ts {
		if t.Type != Tentative {
			kept = append(kept, t)
		}
	}
	return kept
}
