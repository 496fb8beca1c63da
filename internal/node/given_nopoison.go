//go:build !loanpoison

package node

import "borealis/internal/tuple"

// givenSeal is, in builds tagged loanpoison, the checksum a fabric takes of
// a given array at Send (see given_poison.go). Here it is empty.
type givenSeal struct{}

// sealGiven returns, in builds tagged loanpoison, m with the checksum of its
// given array recorded. Here it returns nil: m is delivered as it is.
func sealGiven(DataMsg) any { return nil }

// verify panics, in builds tagged loanpoison, when the given array was
// written since it was sent. Here it does nothing.
func (givenSeal) verify([]tuple.Tuple) {}
