package fabric

import "hash/fnv"

// Links is the per-directed-link fault table both fabrics hold: netsim
// consults it from the simulator's single goroutine, the TCP transport
// under its own mutex (Links does no locking). Each fabric chooses where
// to enforce — at send, at receive, at delivery — but what a link's state
// is, and which delay a message draws, is decided here once, so the two
// fabrics agree by construction. The zero value is a table of healthy
// links.
type Links struct {
	m map[dlink]*linkFault
}

// dlink is one directed endpoint pair.
type dlink struct{ from, to string }

type linkFault struct {
	delayUS, jitterUS int64
	// blocks counts outstanding Block calls: the link drops while any
	// remain, so overlapping partitions of one pair compose — the first
	// heal does not reopen a link a second fault still holds.
	blocks int
	// rng is the link's splitmix64 jitter stream. Seeding from the
	// endpoint names (not a global counter) keeps every link's draw
	// sequence a pure function of its name, independent of every other
	// link, so jitter-induced reordering is reproducible run to run.
	rng uint64
}

// fault returns the entry of from → to, creating it on first use. Entries
// are never removed: a healed link keeps its jitter stream position.
func (l *Links) fault(from, to string) *linkFault {
	f := l.m[dlink{from, to}]
	if f == nil {
		h := fnv.New64a()
		h.Write([]byte(from))
		h.Write([]byte{0})
		h.Write([]byte(to))
		f = &linkFault{rng: h.Sum64()}
		if l.m == nil {
			l.m = make(map[dlink]*linkFault)
		}
		l.m[dlink{from, to}] = f
	}
	return f
}

// Set applies a SetLink call: the delay and jitter of from → to become
// st's, and st.Block adds one block (true) or releases one (false).
func (l *Links) Set(from, to string, st LinkState) {
	f := l.fault(from, to)
	f.delayUS, f.jitterUS = st.DelayUS, st.JitterUS
	f.block(st.Block)
}

// Block adds one block to from → to, leaving its delay and jitter alone.
func (l *Links) Block(from, to string) { l.fault(from, to).block(true) }

// Unblock releases one block of from → to; a link with none stays open.
func (l *Links) Unblock(from, to string) { l.fault(from, to).block(false) }

// block adds one block (on) or releases one, never counting below zero.
func (f *linkFault) block(on bool) {
	if on {
		f.blocks++
	} else if f.blocks > 0 {
		f.blocks--
	}
}

// Blocked reports whether from → to currently drops every message.
func (l *Links) Blocked(from, to string) bool {
	f := l.m[dlink{from, to}]
	return f != nil && f.blocks > 0
}

// Delay returns the injected extra delay for one message on from → to,
// advancing the link's jitter stream. A jittered message is meant to
// bypass the fabric's FIFO clamp: reordering is the fault being injected.
func (l *Links) Delay(from, to string) (d int64, jittered bool) {
	f := l.m[dlink{from, to}]
	if f == nil {
		return 0, false
	}
	d = f.delayUS
	if f.jitterUS > 0 {
		f.rng += 0x9e3779b97f4a7c15
		z := f.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		d += int64((z ^ (z >> 31)) % uint64(f.jitterUS))
		jittered = true
	}
	return d, jittered
}
