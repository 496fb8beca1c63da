//go:build !loanpoison

package node

import "borealis/internal/tuple"

// adoptSum is, in builds tagged loanpoison, the checksum of an array a
// segLog adopted (see adopt_poison.go). Here it is empty.
type adoptSum struct{}

// sumAdopted records a's checksum in builds tagged loanpoison.
func sumAdopted([]tuple.Tuple) adoptSum { return adoptSum{} }

// verify panics, in builds tagged loanpoison, when the adopted array was
// written since the log adopted it. Here it does nothing.
func (adoptSum) verify(string) {}
