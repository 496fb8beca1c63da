package tuple

import "sync"

// LoanPool lends tuple arrays across goroutines: a producer fills a lent
// array on one goroutine and a consumer returns it on another once nothing
// reads it any more. Each fabric keeps one: netsim's and the TCP fabric's
// Send copy a DataMsg's lent array into a loan for an endpoint that returns
// loans, the TCP read loops decode every DataMsg into one, and the
// receiving node returns it after the batch has been dispatched
// (docs/ARCHITECTURE.md, "Who owns a tuple array").
//
// Forgetting to return an array is always safe: the garbage collector takes
// it. Returning one something still reads is the bug, because the next Lend
// overwrites it. Builds tagged loanpoison catch that bug: Return overwrites
// the array with a sentinel tuple and never lends it again, and the data
// plane's entry points panic on the sentinel (CheckNotReturned).
//
// A nil *LoanPool lends fresh arrays and takes nothing back, so a holder of
// an array of unknown origin may call Return unconditionally. Returned
// arrays are not cleared: a pooled array pins its last batch's payloads
// until refilled, bounded by the pool's handful of arrays.
type LoanPool struct {
	mu       sync.Mutex
	free     [][]Tuple
	returned uint64
}

// loanPoolLen bounds the arrays a pool keeps.
const loanPoolLen = 16

// LoanMaxCap bounds the capacity of a kept array, in tuples: one long replay
// frame must not stay pinned behind traffic that needs hundreds. Other
// holders that recycle tuple arrays use the same bound: an OutputBuffer
// gives a flush array grown past it away instead of lending it.
const LoanMaxCap = 1 << 14

// Lend returns an empty array with room for n tuples: a returned one when
// the pool holds one big enough, otherwise a fresh one of exactly n.
func (p *LoanPool) Lend(n int) []Tuple {
	if p != nil {
		p.mu.Lock()
		for i, f := range p.free {
			if cap(f) >= n {
				last := len(p.free) - 1
				p.free[i] = p.free[last]
				p.free[last] = nil
				p.free = p.free[:last]
				p.mu.Unlock()
				return f
			}
		}
		p.mu.Unlock()
	}
	return make([]Tuple, 0, n)
}

// Return gives back an array Lend handed out; nothing may read it
// afterwards. A full pool keeps the larger arrays, so it adapts to growing
// frames instead of allocating for every frame beyond its smallest array.
func (p *LoanPool) Return(ts []Tuple) {
	if p != nil && cap(ts) > 0 { // inlined: a nil pool costs no call
		p.put(ts)
	}
}

func (p *LoanPool) put(ts []Tuple) {
	keep := !poisonReturned(ts) && cap(ts) <= LoanMaxCap
	p.mu.Lock()
	defer p.mu.Unlock()
	p.returned++
	if !keep {
		return
	}
	if len(p.free) < loanPoolLen {
		p.free = append(p.free, ts[:0])
		return
	}
	small := 0
	for i := range p.free {
		if cap(p.free[i]) < cap(p.free[small]) {
			small = i
		}
	}
	if cap(p.free[small]) < cap(ts) {
		p.free[small] = ts[:0]
	}
}

// Returned counts the arrays given back over the pool's lifetime.
func (p *LoanPool) Returned() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.returned
}
