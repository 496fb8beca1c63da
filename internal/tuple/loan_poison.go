//go:build loanpoison

package tuple

import "fmt"

// returnedType marks the sentinel tuple a poisoning build writes over every
// slot of a returned array; no valid tuple carries it.
const returnedType Type = 0xEE

// poisonReturned overwrites a returned array with sentinels and reports
// true: the pool must never lend it again, so a holder that kept reading
// it sees the sentinel instead of another frame's tuples.
func poisonReturned(ts []Tuple) bool {
	ts = ts[:cap(ts)]
	for i := range ts {
		ts[i] = Tuple{Type: returnedType, ID: 0xdeadbeef}
	}
	return true
}

// Poisoning reports whether this is a loanpoison build, whose pools
// overwrite a returned array and never lend it again.
func Poisoning() bool { return true }

// CheckNotReturned panics when ts holds a slot of an array already
// returned to its LoanPool: the data plane read a loan after giving it
// back. It compiles to nothing without the loanpoison build tag.
func CheckNotReturned(where string, ts []Tuple) {
	for i := range ts {
		if ts[i].Type == returnedType {
			panic(fmt.Sprintf("%s: tuple %d of %d belongs to an array returned to its LoanPool", where, i, len(ts)))
		}
	}
}

// CheckTupleNotReturned is CheckNotReturned for one tuple.
func CheckTupleNotReturned(where string, t Tuple) {
	if t.Type == returnedType {
		panic(where + ": tuple from an array returned to its LoanPool")
	}
}
