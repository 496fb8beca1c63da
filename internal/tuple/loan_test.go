package tuple

import (
	"sync"
	"testing"
)

// poisoning reports whether this is a loanpoison build, where returned
// arrays are overwritten and never lent again.
var poisoning = poisonReturned(nil)

func TestLoanPoolNilLendsFresh(t *testing.T) {
	var p *LoanPool
	a := p.Lend(5)
	if len(a) != 0 || cap(a) != 5 {
		t.Fatalf("nil pool lent len %d cap %d, want 0/5", len(a), cap(a))
	}
	p.Return(append(a, Tuple{})) // a no-op, not a panic
}

func TestLoanPoolLendsExactlyNWhenEmpty(t *testing.T) {
	var p LoanPool
	if a := p.Lend(300); len(a) != 0 || cap(a) != 300 {
		t.Fatalf("lent len %d cap %d, want 0/300", len(a), cap(a))
	}
	small := p.Lend(10)[:1]
	p.Return(small)
	if a := p.Lend(11); cap(a) != 11 {
		t.Fatalf("with only a 10-tuple array pooled, Lend(11) gave cap %d, want a fresh 11", cap(a))
	}
}

func TestLoanPoolReusesReturnedArrays(t *testing.T) {
	if poisoning {
		t.Skip("a loanpoison build never lends a returned array again")
	}
	var p LoanPool
	a := p.Lend(64)[:3]
	p.Return(a)
	b := p.Lend(40)
	if len(b) != 0 || cap(b) != 64 || &b[:1][0] != &a[0] {
		t.Fatalf("Lend after Return gave len %d cap %d, want the returned 64-tuple array emptied", len(b), cap(b))
	}
	if p.Returned() != 1 {
		t.Fatalf("Returned = %d, want 1", p.Returned())
	}
}

func TestLoanPoolIsBounded(t *testing.T) {
	if poisoning {
		t.Skip("a loanpoison build keeps no array")
	}
	var p LoanPool
	huge := p.Lend(LoanMaxCap + 1)
	p.Return(huge)
	if len(p.free) != 0 {
		t.Fatal("an array above LoanMaxCap was kept")
	}
	for i := 0; i < 2*loanPoolLen; i++ {
		p.Return(make([]Tuple, 0, 8))
	}
	if len(p.free) != loanPoolLen {
		t.Fatalf("pool keeps %d arrays, want %d", len(p.free), loanPoolLen)
	}
	// A full pool trades its smallest array for a larger one.
	p.Return(make([]Tuple, 0, 100))
	if a := p.Lend(100); cap(a) != 100 {
		t.Fatalf("a full pool dropped the larger array: Lend(100) gave cap %d", cap(a))
	}
	if p.Returned() != uint64(2*loanPoolLen+2) {
		t.Fatalf("Returned = %d, want %d", p.Returned(), 2*loanPoolLen+2)
	}
}

func TestLoanPoolPoisonsReturnedArrays(t *testing.T) {
	if !poisoning {
		CheckNotReturned("test", []Tuple{{Type: 0xEE}}) // compiled out: no panic
		t.Skip("only a loanpoison build poisons")
	}
	var p LoanPool
	a := append(p.Lend(4), NewInsertion(1), NewInsertion(2))
	p.Return(a)
	if b := p.Lend(4); cap(b) == 4 && &b[:1][0] == &a[0] {
		t.Fatal("a poisoned array was lent again")
	}
	panics := func(f func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		f()
		return false
	}
	if !panics(func() { CheckNotReturned("test", a) }) {
		t.Fatal("CheckNotReturned accepted a returned array")
	}
	if !panics(func() { CheckTupleNotReturned("test", a[:4][3]) }) {
		t.Fatal("CheckTupleNotReturned accepted a slot past len of a returned array")
	}
	if panics(func() { CheckNotReturned("test", []Tuple{NewInsertion(1)}) }) {
		t.Fatal("CheckNotReturned rejected a live array")
	}
}

// TestLoanPoolConcurrent lends on several goroutines and returns on others,
// as read loops and run loops do; -race checks the pool's locking, and no
// array is ever lent to two holders at once.
func TestLoanPoolConcurrent(t *testing.T) {
	var p LoanPool
	const lenders, loans = 4, 2000
	ch := make(chan []Tuple, 64) // more loans out than the pool keeps: lends both reuse and allocate
	var wg sync.WaitGroup
	for g := 0; g < lenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < loans; i++ {
				ch <- append(p.Lend(8+i%8), Tuple{ID: uint64(g*loans + i)})
			}
		}(g)
	}
	go func() { wg.Wait(); close(ch) }()
	var returners sync.WaitGroup
	for r := 0; r < 2; r++ {
		returners.Add(1)
		go func() {
			defer returners.Done()
			for a := range ch {
				id := a[0].ID
				for k := 0; k < 100; k++ {
					if a[0].ID != id {
						t.Errorf("array lent twice: id %d became %d", id, a[0].ID)
						break
					}
				}
				p.Return(a)
			}
		}()
	}
	returners.Wait()
	if p.Returned() != lenders*loans {
		t.Fatalf("Returned = %d, want %d", p.Returned(), lenders*loans)
	}
}
