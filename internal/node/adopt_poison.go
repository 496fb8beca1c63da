//go:build loanpoison

package node

import (
	"fmt"

	"borealis/internal/tuple"
)

// adoptSum holds an adopted array, whole, and its checksum at adoption. A
// sent array is shared by every receiver of the message and by the log,
// which replays out of it, so nobody may write it again: verify catches
// any writer, sender or receiver, the next time the log touches the array.
type adoptSum struct {
	whole []tuple.Tuple
	sum   uint64
}

// sumAdopted records the checksum of a, which the log adopts.
func sumAdopted(a []tuple.Tuple) adoptSum { return adoptSum{whole: a, sum: checksum(a)} }

// verify panics when the adopted array no longer matches its checksum; a
// staged run (no array) passes.
func (s adoptSum) verify(op string) {
	if s.whole != nil && checksum(s.whole) != s.sum {
		panic(fmt.Sprintf("segLog: %s an adopted array of %d tuples that was written after it was sent", op, len(s.whole)))
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
