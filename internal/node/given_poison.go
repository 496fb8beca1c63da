//go:build loanpoison

package node

import (
	"fmt"

	"borealis/internal/tuple"
)

// givenSeal is the checksum of a given array, taken when a fabric's Send
// passes it on (DataMsg.CopyTuples). A given array is shared by every
// receiver of the message, and a source's or an output buffer's given
// arrays by every subscriber, so nobody may write it again: verify, at
// delivery, catches a sender that wrote it after Send or an earlier
// receiver that wrote into it.
type givenSeal struct {
	sum    uint64
	sealed bool
}

// sealGiven returns m with the checksum of its given array recorded.
func sealGiven(m DataMsg) any {
	m.seal = givenSeal{sum: checksum(m.Tuples), sealed: true}
	return m
}

// verify panics when ts, the given array the seal was taken of, no longer
// matches it; an unsealed message passes.
func (s givenSeal) verify(ts []tuple.Tuple) {
	if s.sealed && checksum(ts) != s.sum {
		panic(fmt.Sprintf("node: a given array of %d tuples was written after it was sent", len(ts)))
	}
}

// checksum is FNV-1a over every field of every tuple, payload included.
func checksum(ts []tuple.Tuple) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := range ts {
		t := &ts[i]
		mix(uint64(t.Type))
		mix(uint64(t.Src))
		mix(t.ID)
		mix(uint64(t.STime))
		mix(uint64(t.Len()))
		for _, v := range t.Values() {
			mix(uint64(v))
		}
	}
	return h
}
