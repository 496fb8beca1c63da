package tuple

import (
	"sync"
	"testing"
)

func TestLoanPoolNilLendsFresh(t *testing.T) {
	var p *LoanPool
	a := p.Lend(5)
	if len(a) != 0 || cap(a) != 5 {
		t.Fatalf("nil pool lent len %d cap %d, want 0/5", len(a), cap(a))
	}
	p.Return(append(a, Tuple{})) // a no-op, not a panic
}

func TestLoanPoolLendsPowersOfTwoWhenEmpty(t *testing.T) {
	var p LoanPool
	for _, tc := range []struct{ n, cap int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {300, 512}, {1024, 1024},
		{LoanMaxCap, LoanMaxCap}, {LoanMaxCap + 1, LoanMaxCap + 1},
	} {
		if a := p.Lend(tc.n); len(a) != 0 || cap(a) != tc.cap {
			t.Errorf("Lend(%d) gave len %d cap %d, want 0/%d", tc.n, len(a), cap(a), tc.cap)
		}
	}
	small := p.Lend(10)[:1]
	p.Return(small)
	if a := p.Lend(17); cap(a) != 32 {
		t.Fatalf("with only a 16-tuple array pooled, Lend(17) gave cap %d, want a fresh 32", cap(a))
	}
}

func TestLoanPoolReusesReturnedArrays(t *testing.T) {
	if Poisoning() {
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

// TestLoanPoolLendsAClassForEveryNItCovers: an array lent for n comes back
// to n's class and is lent again for every n that class covers, the
// power of two itself included; a request one class up or down gets a
// fresh array. An array of a capacity Lend never makes is filed under the
// class it fills, so it fits every request it is lent for.
func TestLoanPoolLendsAClassForEveryNItCovers(t *testing.T) {
	if Poisoning() {
		t.Skip("a loanpoison build never lends a returned array again")
	}
	for k := 0; 1<<k <= LoanMaxCap; k++ {
		var p LoanPool
		a := p.Lend(1 << k)
		lo := 1<<k/2 + 1
		if k == 0 {
			lo = 0
		}
		for n := lo; n <= 1<<k; n = max(n+1, n+n/7) {
			p.Return(a)
			if b := p.Lend(n); cap(b) != 1<<k || &b[:1][0] != &a[:1][0] {
				t.Fatalf("class %d: Lend(%d) gave a fresh cap %d, want the returned %d-tuple array", k, n, cap(b), 1<<k)
			}
		}
		p.Return(a)
		if k > 0 {
			if b := p.Lend(1 << (k - 1)); &b[:1][0] == &a[:1][0] {
				t.Fatalf("class %d: Lend(%d), a class down, took the %d-tuple array", k, 1<<(k-1), 1<<k)
			}
		}
		if b := p.Lend(1<<k + 1); &b[:1][0] == &a[:1][0] {
			t.Fatalf("class %d: Lend(%d), a class up, took the %d-tuple array", k, 1<<k+1, 1<<k)
		}
	}
	var p LoanPool
	odd := make([]Tuple, 0, 300)
	p.Return(odd)
	if b := p.Lend(300); cap(b) != 512 {
		t.Fatalf("a 300-tuple array was lent for 300 from the 512 class: cap %d", cap(b))
	}
	if b := p.Lend(256); &b[:1][0] != &odd[:1][0] {
		t.Fatalf("a 300-tuple array was not lent for 256, the class it fills")
	}
}

// TestLoanPoolIsBounded: the pool keeps no array above LoanMaxCap, and
// after a burst of loans it holds, per size class, exactly as many arrays
// as were out of that class at the burst's peak; the same burst again
// allocates nothing.
func TestLoanPoolIsBounded(t *testing.T) {
	if Poisoning() {
		t.Skip("a loanpoison build keeps no array")
	}
	var p LoanPool
	p.Return(p.Lend(LoanMaxCap + 1))
	if p.Kept() != 0 {
		t.Fatal("an array above LoanMaxCap was kept")
	}
	// The burst: 40 loans of mixed sizes out at once, 30 back, 15 more
	// out, then all back.
	var out, peak [loanClasses]int
	var held [][]Tuple
	distinct := map[*Tuple]bool{}
	lent := 0
	lend := func(k int) {
		for ; k > 0; k-- {
			n := 1 + (lent*37)%1500
			lent++
			a := p.Lend(n)[:1]
			distinct[&a[0]] = true
			c := lendClass(n)
			out[c]++
			peak[c] = max(peak[c], out[c])
			held = append(held, a)
		}
	}
	giveBack := func(k int) {
		for ; k > 0; k-- {
			out[lendClass(cap(held[0]))]--
			p.Return(held[0])
			held = held[1:]
		}
	}
	burst := func() {
		lent = 0
		lend(40)
		giveBack(30)
		lend(15)
		giveBack(len(held))
	}
	burst()
	sum := 0
	for _, k := range peak {
		sum += k
	}
	if p.Kept() != sum || len(distinct) != sum {
		t.Fatalf("after the burst the pool keeps %d arrays and lent %d distinct ones, want both the %d out of their classes at their peaks", p.Kept(), len(distinct), sum)
	}
	burst()
	if len(distinct) != sum || p.Kept() != sum {
		t.Fatalf("the same burst again lent %d new arrays, want none", len(distinct)-sum)
	}
}

func TestLoanPoolPoisonsReturnedArrays(t *testing.T) {
	if !Poisoning() {
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
