//go:build !loanpoison

package tuple

// poisonReturned leaves a returned array as it is: the pool may lend it
// again. See loan_poison.go for the checking build.
func poisonReturned([]Tuple) bool { return false }

// Poisoning reports whether this is a loanpoison build, whose pools
// overwrite a returned array and never lend it again. Here it is false.
func Poisoning() bool { return false }

// CheckNotReturned panics, in builds tagged loanpoison, when ts holds a
// slot of an array already returned to its LoanPool. Here it does nothing.
func CheckNotReturned(string, []Tuple) {}

// CheckTupleNotReturned is CheckNotReturned for one tuple.
func CheckTupleNotReturned(string, Tuple) {}
