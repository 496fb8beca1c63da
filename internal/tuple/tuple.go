// Package tuple defines the DPC data model from §4.1 of the Borealis
// fault-tolerance paper: stream tuples carry a type (INSERTION, TENTATIVE,
// BOUNDARY, UNDO, or REC_DONE), a per-stream identifier, and a timestamp
// (tuple_stime) used for serialization and window computation.
package tuple

import (
	"encoding/json"
	"fmt"
	"slices"
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
// The payload (the paper's data fields) is read through Len, Field and
// Values and written through SetData and SetField. A payload of up to two
// values — every source tuple, map output and aggregate result — lives
// inside the tuple, so copying a tuple copies its values and whoever holds
// the copy may rewrite them. A longer payload (a join output) lives in a
// chunk of int64s the tuple points at; it is immutable once published, and
// SetField copies it before writing.
//
// Src and the inline length sit next to Type so all three share one word:
// a Tuple is 48 bytes, and every frame, log, buffer and message array is
// sized in Tuples. Nothing depends on the field order — the wire codec
// encodes each field explicitly. The methods the data plane calls on frame
// slots (IsData, Len, Field, Values) take a pointer: through a value
// receiver every call would copy the whole tuple.
type Tuple struct {
	Type  Type
	n     uint8 // inline payload length (0-2); 0 when long is set
	Src   int32
	ID    uint64
	STime int64
	// v holds the payload when long is nil, unused slots zero; otherwise
	// the payload's offset and length in *long.
	v    [2]int64
	long *[]int64
}

// NewInsertion returns a stable data tuple.
func NewInsertion(stime int64, data ...int64) Tuple {
	return Tuple{Type: Insertion, STime: stime}.WithData(data...)
}

// NewTentative returns a tentative data tuple.
func NewTentative(stime int64, data ...int64) Tuple {
	return Tuple{Type: Tentative, STime: stime}.WithData(data...)
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
func (t *Tuple) IsData() bool { return t.Type.IsData() }

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

// Clone returns the tuple with a payload of its own: a long payload is
// copied into a fresh chunk. Published payloads are never rewritten, so
// Clone is only needed to detach a tuple from the chunk it was carved
// from; the copy is in canonical form (see SetData).
func (t Tuple) Clone() Tuple {
	if t.long != nil {
		t.SetData(nil, t.Values()...)
	}
	return t
}

// Len returns the number of payload values.
func (t *Tuple) Len() int {
	if t.long != nil {
		return int(t.v[1])
	}
	return int(t.n)
}

// Field returns payload value i, or 0 if the index is out of range.
// Operators use it so that malformed tuples degrade predictably instead of
// panicking.
func (t *Tuple) Field(i int) int64 {
	if t.long != nil {
		if uint(i) < uint(t.v[1]) {
			return (*t.long)[t.v[0]+int64(i)]
		}
		return 0
	}
	if uint(i) < uint(len(t.v)) { // unused inline slots are zero
		return t.v[i]
	}
	return 0
}

// Values returns the payload. The slice is a read-only view: it aliases
// the tuple's inline values or its published chunk, so writes go through
// SetData or SetField instead.
func (t *Tuple) Values() []int64 {
	if t.long != nil {
		lo, hi := t.v[0], t.v[0]+t.v[1]
		return (*t.long)[lo:hi:hi]
	}
	return t.v[:t.n:t.n]
}

// SetData sets the payload to a copy of vals. Up to two values go inline;
// a longer payload is carved from a, or from a chunk of its own when a is
// nil. Payloads built with a nil arena are in canonical form — inline
// slots past the length zero, a long payload alone in its chunk — so
// reflect.DeepEqual agrees with Equal on them.
func (t *Tuple) SetData(a *I64Arena, vals ...int64) {
	switch len(vals) { // a case per inline length: no memmove call
	case 0:
		t.v, t.n, t.long = [2]int64{}, 0, nil
	case 1:
		t.v, t.n, t.long = [2]int64{vals[0]}, 1, nil
	case 2:
		t.v, t.n, t.long = [2]int64{vals[0], vals[1]}, 2, nil
	default:
		chunk, off := a.carve(len(vals))
		copy((*chunk)[off:], vals)
		t.v, t.n, t.long = [2]int64{int64(off), int64(len(vals))}, 0, chunk
	}
}

// WithData returns the tuple with its payload set to a copy of vals, as
// SetData with a nil arena does.
func (t Tuple) WithData(vals ...int64) Tuple {
	t.SetData(nil, vals...)
	return t
}

// SetField sets payload value i to v; an index past the payload is
// ignored. An inline value is written in place. A long payload is
// immutable once published, so it is first copied into a (a chunk of its
// own when a is nil).
func (t *Tuple) SetField(a *I64Arena, i int, v int64) {
	if t.long != nil {
		t.setLongField(a, i, v)
	} else if uint(i) < uint(t.n) {
		t.v[i] = v
	}
}

func (t *Tuple) setLongField(a *I64Arena, i int, v int64) {
	if uint(i) >= uint(t.v[1]) {
		return
	}
	t.SetData(a, t.Values()...)
	(*t.long)[t.v[0]+int64(i)] = v
}

func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{id=%d stime=%d src=%d", t.Type, t.ID, t.STime, t.Src)
	if t.Len() > 0 {
		fmt.Fprintf(&b, " data=%v", t.Values())
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
	return slices.Compare(a.Values(), b.Values())
}

// Equal reports whether two tuples are identical in all fields, including
// data. It is used by tests and by the client-side consistency audit.
func Equal(a, b Tuple) bool {
	if a.Type != b.Type || a.ID != b.ID || a.STime != b.STime || a.Src != b.Src {
		return false
	}
	return slices.Equal(a.Values(), b.Values())
}

// SameValue reports whether two data tuples carry the same logical value
// (timestamp and payload), ignoring stability, stream position and source
// tags. The eventual-consistency audit uses it to compare a corrected output
// stream against a failure-free reference run.
func SameValue(a, b Tuple) bool {
	return a.STime == b.STime && slices.Equal(a.Values(), b.Values())
}

// tupleJSON is a Tuple's JSON form: the exported fields in declaration
// order and the payload as Data, null when empty.
type tupleJSON struct {
	Type  Type
	Src   int32
	ID    uint64
	STime int64
	Data  []int64
}

// MarshalJSON encodes the tuple as {"Type","Src","ID","STime","Data"}.
func (t Tuple) MarshalJSON() ([]byte, error) {
	j := tupleJSON{Type: t.Type, Src: t.Src, ID: t.ID, STime: t.STime}
	if t.Len() > 0 {
		j.Data = t.Values()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes MarshalJSON's form into canonical form.
func (t *Tuple) UnmarshalJSON(b []byte) error {
	var j tupleJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*t = Tuple{Type: j.Type, Src: j.Src, ID: j.ID, STime: j.STime}
	t.SetData(nil, j.Data...)
	return nil
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

// I64Arena carves payloads of more than two values (join outputs) from
// shared chunks: they live as long as the logs and buffers retaining them,
// and chunk-carving keeps millions of small payloads from individually
// burdening the GC. Carved values are immutable once published.
type I64Arena struct {
	chunk *[]int64
	used  int
}

// carve returns a chunk and the offset of n unused values in it. A nil
// arena gives every payload a chunk of exactly its own length.
func (a *I64Arena) carve(n int) (*[]int64, int) {
	if a == nil {
		c := make([]int64, n)
		return &c, 0
	}
	a.grow(n, max(4096, n))
	off := a.used
	a.used += n
	return a.chunk, off
}

// Reserve makes room for n more values in the current chunk, replacing a
// chunk with less room by one of exactly n values. A caller that knows its
// need up front, such as a frame decoder, allocates once for a batch of
// payloads instead of a full-size chunk.
func (a *I64Arena) Reserve(n int) { a.grow(n, n) }

// grow replaces a chunk without room for n more values by one of size.
func (a *I64Arena) grow(n, size int) {
	if a.chunk == nil || len(*a.chunk)-a.used < n {
		c := make([]int64, size)
		a.chunk, a.used = &c, 0
	}
}

// Alloc returns a zeroed n-element slice carved from the current chunk.
// Slices returned by Alloc must not be appended to.
func (a *I64Arena) Alloc(n int) []int64 {
	c, off := a.carve(n)
	return (*c)[off : off+n : off+n]
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
