package operator

import (
	"math/bits"

	"borealis/internal/tuple"
)

// JoinConfig parameterizes an SJoin.
type JoinConfig struct {
	// Window is the maximum |stime difference| between matching tuples.
	Window int64
	// LeftKey and RightKey index the join attribute in each side's
	// payload. Tuples match when the key fields are equal and their
	// stimes are within Window of each other.
	LeftKey, RightKey int
	// IsLeft classifies a tuple by the Src tag assigned by the SUnion
	// that serializes the join's inputs. If nil, Src 0 is the left side.
	IsLeft func(src int32) bool
}

// SJoin is the paper's modified Join operator (§3): a windowed, key-equality
// join that consumes the single deterministic order prepared by a preceding
// SUnion, so that all replicas process the exact same interleaving. It
// blocks naturally when one side's tuples are missing (a Join is a blocking
// operator, §2.1), and it labels an output tentative whenever either
// matching tuple is tentative.
type SJoin struct {
	Base
	cfg JoinConfig
	// left and right buffer each side's tuples in arrival order, pruned
	// from the old end as the watermark advances past usefulness.
	left, right joinWindow
	watermark   int64
	sentBound   int64

	// out is the scratch frame one ProcessBatch call stages its emissions
	// in and loans downstream; arena carves output payloads longer than two
	// values, and cat stages each one. All three are pure allocation reuse
	// — none is operator state, so none is checkpointed.
	out   []tuple.Tuple
	arena tuple.I64Arena
	cat   []int64
}

// NewSJoin builds an SJoin.
func NewSJoin(name string, cfg JoinConfig) *SJoin {
	if cfg.Window <= 0 {
		panic("operator: join window must be positive")
	}
	if cfg.IsLeft == nil {
		cfg.IsLeft = func(src int32) bool { return src == 0 }
	}
	return &SJoin{Base: NewBase(name), cfg: cfg, watermark: -1, sentBound: -1}
}

// Inputs returns 1: SJoin consumes an SUnion-serialized stream.
func (j *SJoin) Inputs() int { return 1 }

// StateSize reports the number of buffered tuples (the paper sizes this
// join's state at 100 tuples in the Table III / Fig. 13 experiments).
func (j *SJoin) StateSize() int { return j.left.n + j.right.n }

// Process consumes one tuple from the serialized stream: ProcessBatch on a
// one-tuple frame.
func (j *SJoin) Process(port int, t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	j.ProcessBatch(port, one[:])
}

// ProcessBatch consumes a frame of the serialized stream, staging every
// emission — joined tuples, forwarded boundaries, UNDO and REC_DONE, in
// stream order — in the scratch frame and loaning it downstream once. It
// never declines, and it is deliberately not CleanPreserving: a clean frame
// can still produce a TENTATIVE output when the opposite window holds
// tentative tuples buffered during an earlier failure, so the staged
// dispatcher must scan what the join emits. The input frame is only read.
func (j *SJoin) ProcessBatch(_ int, ts []tuple.Tuple) bool {
	out := j.out[:0]
	for i := range ts {
		t := &ts[i]
		switch {
		case t.IsData():
			if j.cfg.IsLeft(t.Src) {
				key := t.Field(j.cfg.LeftKey)
				out = j.match(out, t, key, &j.right, true)
				j.left.push(*t, key)
			} else {
				key := t.Field(j.cfg.RightKey)
				out = j.match(out, t, key, &j.left, false)
				j.right.push(*t, key)
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
				out = append(out, *t)
			}
		default:
			out = append(out, *t) // UNDO / REC_DONE pass through
		}
	}
	j.out = out
	if len(out) > 0 {
		j.EmitLoan(out)
	}
	return true
}

// match appends to out the join of t with every tuple of the opposite
// window that carries the same key and lies within Window of t.STime,
// oldest first. Output payload is left's values ++ right's and output stime
// is the later of the pair.
func (j *SJoin) match(out []tuple.Tuple, t *tuple.Tuple, key int64, opposite *joinWindow, tIsLeft bool) []tuple.Tuple {
	if opposite.n == 0 {
		return out
	}
	lo, hi := t.STime-j.cfg.Window, t.STime+j.cfg.Window
	for seq := opposite.chains[opposite.bucket(key)].first; seq != 0; {
		e := &opposite.slots[seq&opposite.mask]
		seq = e.next
		if e.key != key || e.t.STime < lo || e.t.STime > hi {
			continue
		}
		l, r := t, &e.t
		if !tIsLeft {
			l, r = r, l
		}
		o := tuple.Tuple{Type: tuple.Insertion, STime: max(l.STime, r.STime)}
		if l.Type == tuple.Tentative || r.Type == tuple.Tentative {
			o.Type = tuple.Tentative
		}
		j.cat = append(append(j.cat[:0], l.Values()...), r.Values()...)
		o.SetData(&j.arena, j.cat...)
		out = append(out, o)
	}
	return out
}

// prune drops buffered tuples too old to match anything at or beyond the
// watermark: a future tuple has stime ≥ watermark, so partners below
// watermark-Window are dead.
func (j *SJoin) prune() {
	cut := j.watermark - j.cfg.Window
	j.left.popBefore(cut)
	j.right.popBefore(cut)
}

// joinWindow is one side's buffered tuples: a growable ring in arrival order
// with a hash index threaded through it. Entries are addressed by arrival
// sequence number (seq & mask is the slot), so links survive growth; seq 0
// is never issued and stands for "none". Every entry hangs on the chain of
// its key's hash bucket, oldest first, so a probe walks only the entries
// that share the arriving key (plus hash collisions, told apart by the
// stored key) and the ring head — the oldest entry overall — is always the
// first entry of its chain, which makes eviction a prefix pop on both.
type joinWindow struct {
	slots  []joinSlot  // len is zero or a power of two
	chains []joinChain // hash buckets; len(chains) == len(slots)
	mask   uint64
	shift  uint   // 64 - log2(len(chains))
	head   uint64 // seq of the oldest live entry
	n      int    // live entries: seqs head .. head+n-1
}

type joinSlot struct {
	t    tuple.Tuple
	key  int64
	next uint64 // seq of the next-newer entry on the same chain, 0 at the tail
}

type joinChain struct{ first, last uint64 }

// bucket is the Fibonacci hash of key into chains.
func (w *joinWindow) bucket(key int64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> w.shift
}

// push appends t as the newest entry.
func (w *joinWindow) push(t tuple.Tuple, key int64) {
	if w.n == len(w.slots) {
		w.grow()
	}
	seq := w.head + uint64(w.n)
	w.slots[seq&w.mask] = joinSlot{t: t, key: key}
	w.link(seq, key)
	w.n++
}

// link hangs the entry at seq on the tail of its key's chain.
func (w *joinWindow) link(seq uint64, key int64) {
	c := &w.chains[w.bucket(key)]
	if c.first == 0 {
		c.first = seq
	} else {
		w.slots[c.last&w.mask].next = seq
	}
	c.last = seq
}

// popBefore evicts the prefix of entries with stime below cut — a prefix
// pop in arrival order, never a filter — zeroing each slot so its payload
// is not retained.
func (w *joinWindow) popBefore(cut int64) {
	for w.n > 0 {
		e := &w.slots[w.head&w.mask]
		if e.t.STime >= cut {
			return
		}
		c := &w.chains[w.bucket(e.key)]
		if c.first = e.next; c.first == 0 {
			c.last = 0
		}
		*e = joinSlot{}
		w.head++
		w.n--
	}
}

// grow doubles the ring (16 slots on first use) and re-threads the chains
// over the wider bucket array.
func (w *joinWindow) grow() {
	old, oldMask := w.slots, w.mask
	size := max(16, 2*len(old))
	w.slots, w.chains = make([]joinSlot, size), make([]joinChain, size)
	w.mask, w.shift = uint64(size-1), uint(64-bits.TrailingZeros(uint(size)))
	if w.head == 0 {
		w.head = 1
	}
	for seq := w.head; seq < w.head+uint64(w.n); seq++ {
		e := old[seq&oldMask]
		e.next = 0
		w.slots[seq&w.mask] = e
		w.link(seq, e.key)
	}
}

// tuples copies the buffered tuples in arrival order. Their payloads are
// inline or immutable once published, so the copy shares nothing mutable.
func (w *joinWindow) tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, w.n)
	for i := range out {
		out[i] = w.slots[(w.head+uint64(i))&w.mask].t
	}
	return out
}

// load replaces the window's content with copies of ts, re-deriving each
// entry's key from the given payload field.
func (w *joinWindow) load(ts []tuple.Tuple, keyField int) {
	clear(w.slots)
	clear(w.chains)
	w.n = 0
	for i := range ts {
		w.push(ts[i], ts[i].Field(keyField))
	}
}

type joinState struct {
	Left, Right []tuple.Tuple
	Watermark   int64
	SentBound   int64
}

// Checkpoint copies the join buffers. The key index is derived state:
// Restore rebuilds it from the tuples.
func (j *SJoin) Checkpoint() any {
	return joinState{
		Left:      j.left.tuples(),
		Right:     j.right.tuples(),
		Watermark: j.watermark,
		SentBound: j.sentBound,
	}
}

// Restore reinstates a snapshot.
func (j *SJoin) Restore(s any) {
	st := s.(joinState)
	j.left.load(st.Left, j.cfg.LeftKey)
	j.right.load(st.Right, j.cfg.RightKey)
	j.watermark = st.Watermark
	j.sentBound = st.SentBound
}
