package tuple

import (
	"math/bits"
	"sync"
)

// LoanPool lends tuple arrays across goroutines: a producer fills a lent
// array on one goroutine and a consumer returns it on another once nothing
// reads it any more. Each fabric keeps one: netsim's and the TCP fabric's
// Send copy a DataMsg's lent array into a loan for an endpoint that returns
// loans, the TCP read loops decode every DataMsg into one, and the
// receiving node returns it after the batch has been dispatched
// (docs/ARCHITECTURE.md, "Who owns a tuple array"). Every tuple log lends
// its segments from one too, and gives back each segment it empties.
//
// The pool files arrays by size class: class k holds arrays of capacity
// 2^k up to 2^(k+1)-1 and lends them for every n above 2^(k-1) up to 2^k,
// so any array of class k fits any request it is lent for. A fresh array
// is rounded up to a power of two (one tuple at least), so it comes back
// to the class it was lent from. The pool keeps every array returned to
// it, up to LoanMaxCap tuples each, and has no other bound: it allocates
// in a class only when every array of that class is out, so it never holds
// more arrays of a class than its owners held out of it at their peak.
//
// Forgetting to return an array is always safe: the garbage collector takes
// it. Returning one something still reads is the bug, because the next Lend
// overwrites it. Builds tagged loanpoison catch that bug: Return overwrites
// the array with a sentinel tuple and never lends it again, and the data
// plane's entry points panic on the sentinel (CheckNotReturned).
//
// A nil *LoanPool lends fresh arrays of exactly n and takes nothing back,
// so a holder of an array of unknown origin may call Return
// unconditionally. Returned arrays are not cleared: a pooled array pins its
// last batch's payloads until refilled; holders that need zeroed arrays
// (tuple logs) clear what they filled before returning it.
type LoanPool struct {
	mu       sync.Mutex
	free     [loanClasses][][]Tuple
	returned uint64
}

// loanClasses is the number of size classes: capacities 1 to LoanMaxCap.
const loanClasses = 15

// LoanMaxCap bounds the capacity of a kept array, in tuples: one long replay
// frame must not stay pinned behind traffic that needs hundreds. Other
// holders that recycle tuple arrays use the same bound: an OutputBuffer
// gives a flush array grown past it away instead of lending it.
const LoanMaxCap = 1 << (loanClasses - 1)

// lendClass returns the class Lend(n) takes an array from: the smallest k
// with 2^k ≥ n.
func lendClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// Lend returns an empty array with room for n tuples: a returned one from
// n's class when the pool holds one, otherwise a fresh one of n rounded up
// to a power of two. Beyond LoanMaxCap, where nothing is kept, a fresh
// array holds exactly n.
func (p *LoanPool) Lend(n int) []Tuple {
	if p == nil {
		return make([]Tuple, 0, n)
	}
	if n > LoanMaxCap {
		return make([]Tuple, 0, n)
	}
	k := lendClass(n)
	p.mu.Lock()
	if free := p.free[k]; len(free) > 0 {
		f := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[k] = free[:len(free)-1]
		p.mu.Unlock()
		return f
	}
	p.mu.Unlock()
	return make([]Tuple, 0, 1<<k)
}

// Return gives back an array Lend handed out; nothing may read it
// afterwards. It is filed under the class its capacity fills.
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
	if keep {
		k := bits.Len(uint(cap(ts))) - 1
		p.free[k] = append(p.free[k], ts[:0])
	}
}

// Kept counts the arrays the pool holds.
func (p *LoanPool) Kept() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, free := range p.free {
		n += len(free)
	}
	return n
}

// Returned counts the arrays given back over the pool's lifetime.
func (p *LoanPool) Returned() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.returned
}
