package operator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"borealis/internal/tuple"
)

// emitBucket's order is slices.SortStableFunc(bucket, tuple.Compare), which
// stays here as the oracle: an in-order bucket is loaned as it arrived, an
// out-of-order one is split by port, its port runs sorted only when out of
// order, and merged back. Type is not compared by tuple.Compare, so the
// generated buckets alternate it across fully-tied tuples: a tie emitted out
// of arrival order shows as a Type mismatch against the oracle.

// genMergeBucket draws one bucket: 1 to 5 ports, each with its own tuples
// in port order (occasionally disturbed), interleaved in runs of random
// length as separate upstreams would deliver them. Stimes are few so ties
// are common; full ties (stime, port, id) carry equal payloads, held inline
// (up to two values) or long.
func genMergeBucket(r *rand.Rand) (ports int, bucket []tuple.Tuple) {
	ports = 1 + r.Intn(5)
	perPort := make([][]tuple.Tuple, ports)
	id := uint64(0)
	for p := range perPort {
		n := r.Intn(40)
		if r.Intn(8) == 0 {
			n = r.Intn(400)
		}
		stime := int64(r.Intn(4))
		for k := 0; k < n; k++ {
			if r.Intn(3) == 0 {
				stime += int64(r.Intn(3))
			}
			if r.Intn(2) == 0 {
				id++ // otherwise a tie on id too
			}
			var data []int64
			switch r.Intn(4) {
			case 0: // empty payload
			case 1:
				data = []int64{int64(r.Intn(2))}
			case 2:
				data = []int64{1, int64(r.Intn(2))}
			case 3:
				data = []int64{1, 2, int64(r.Intn(2))} // long
			}
			t := tuple.Tuple{Type: tuple.Insertion, Src: int32(p), ID: id, STime: stime}.WithData(data...)
			if k%2 == 1 {
				t.Type = tuple.Tentative
			}
			perPort[p] = append(perPort[p], t)
		}
		if run := perPort[p]; len(run) > 1 && r.Intn(6) == 0 {
			// A port run out of order of its own.
			for s := 0; s < 1+r.Intn(3); s++ {
				i, j := r.Intn(len(run)), r.Intn(len(run))
				run[i], run[j] = run[j], run[i]
			}
		}
	}
	for {
		live := 0
		for p := range perPort {
			if len(perPort[p]) > 0 {
				live++
			}
		}
		if live == 0 {
			break
		}
		p := r.Intn(ports)
		n := min(len(perPort[p]), 1+r.Intn(12))
		bucket = append(bucket, perPort[p][:n]...)
		perPort[p] = perPort[p][n:]
	}
	if r.Intn(5) == 0 {
		slices.SortStableFunc(bucket, tuple.Compare) // an in-order bucket
	}
	return ports, bucket
}

// checkEmitMatchesSort emits bucket as one stable bucket of a fresh SUnion
// and holds the emission to the oracle: the same tuples, fully-tied ones in
// arrival order, long payloads shared rather than copied, and an in-order
// bucket loaned as the very array it was buffered in, unchanged.
func checkEmitMatchesSort(t *testing.T, ports int, bucket []tuple.Tuple) {
	t.Helper()
	want := slices.Clone(bucket)
	slices.SortStableFunc(want, tuple.Compare)
	sorted := slices.EqualFunc(bucket, want, tuple.Equal)

	s := NewSUnion("su", SUnionConfig{Ports: ports, BucketSize: 1 << 40})
	c := attachLoan(s, nil, true)
	b := s.allocBucket(0)
	b.Tuples = append(b.Tuples, bucket...)
	arr := b.Tuples
	s.emitBucket(b, false)
	if len(bucket) == 0 {
		return
	}
	if len(c.loans) != 1 || &c.loans[0][0] != &arr[0] || s.loaned != b {
		t.Fatalf("a stable bucket must go out as one loan of its own array (%d loans)", len(c.loans))
	}
	got := c.loans[0]
	if len(got) != len(want) {
		t.Fatalf("emitted %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !tuple.Equal(got[i], want[i]) {
			t.Fatalf("ports=%d sorted=%v: tuple %d is %+v, stable sort has %+v", ports, sorted, i, got[i], want[i])
		}
		if g, w := got[i].Values(), want[i].Values(); len(g) > 2 && &g[0] != &w[0] {
			t.Fatalf("tuple %d: long payload copied", i)
		}
	}

	// The tentative path emits the same order, tuple by tuple.
	s2 := NewSUnion("su", SUnionConfig{Ports: ports, BucketSize: 1 << 40})
	c2 := attachLoan(s2, nil, true)
	b2 := s2.allocBucket(0)
	b2.Tuples = append(b2.Tuples, bucket...)
	s2.emitBucket(b2, true)
	if len(c2.out) != len(want) || len(c2.loans) != 0 {
		t.Fatalf("tentative emission: %d tuples, %d loans", len(c2.out), len(c2.loans))
	}
	for i := range want {
		if w := want[i].AsTentative(); !tuple.Equal(c2.out[i], w) {
			t.Fatalf("tentative tuple %d is %+v, want %+v", i, c2.out[i], w)
		}
	}
}

func TestSUnionEmitMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	sorted, merged, portRunsOut := 0, 0, 0
	for i := 0; i < 3000; i++ {
		ports, bucket := genMergeBucket(r)
		if inOrder(bucket) {
			sorted++
		} else {
			merged++
		}
		for p := 0; p < ports; p++ {
			var run []tuple.Tuple
			for _, tp := range bucket {
				if tp.Src == int32(p) {
					run = append(run, tp)
				}
			}
			if !inOrder(run) {
				portRunsOut++
				break
			}
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkEmitMatchesSort(t, ports, bucket) })
	}
	if sorted < 300 || merged < 1000 || portRunsOut < 200 {
		t.Fatalf("coverage too thin: %d in-order, %d merged, %d with a port run out of order", sorted, merged, portRunsOut)
	}
}

// FuzzSUnionEmitMatchesSort reads a bucket from bytes, three per tuple: the
// port, the stime, and the id and payload, so ties of every kind and port
// runs out of order come up at will.
func FuzzSUnionEmitMatchesSort(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{5, 4, 3, 7, 3, 3, 6, 2, 1, 5, 1, 1, 2, 0, 0, 4, 0, 0, 3, 2, 2, 0, 3, 9})
	f.Add([]byte{3, 2, 5, 3, 2, 5, 3, 2, 5, 3, 1, 5, 3, 0, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ports := 1 + int(data[0])%5
		var bucket []tuple.Tuple
		for i := 1; i+2 < len(data); i += 3 {
			p, st, x := int32(data[i])%int32(ports), int64(data[i+1]%8), data[i+2]
			var payload []int64
			switch x & 3 {
			case 1:
				payload = []int64{int64(x>>6) & 1}
			case 2:
				payload = []int64{7, int64(x>>6) & 1}
			case 3:
				payload = []int64{7, 8, int64(x>>6) & 1}
			}
			tp := tuple.Tuple{Type: tuple.Insertion, Src: p, ID: uint64(x>>2) & 3, STime: st}.WithData(payload...)
			if len(bucket)%2 == 1 {
				tp.Type = tuple.Tentative
			}
			bucket = append(bucket, tp)
		}
		checkEmitMatchesSort(t, ports, bucket)
	})
}

// After warm-up, an out-of-order bucket is emitted without allocating: the
// split takes a recycled bucket's array, and new buckets come with room for
// the largest one seen.
func TestSUnionOutOfOrderEmissionAllocatesNothing(t *testing.T) {
	const (
		bucket = 1000
		runs   = 10
		perRun = 50
	)
	s := NewSUnion("su", SUnionConfig{Ports: 2, BucketSize: bucket})
	emitted := 0
	s.Attach(&Env{
		Emit:     func(tuple.Tuple) {},
		EmitLoan: func(ts []tuple.Tuple) bool { emitted += len(ts); return true },
		Now:      func() int64 { return 0 },
	})
	batches := make([][]tuple.Tuple, 2)
	for p := range batches {
		batches[p] = make([]tuple.Tuple, 0, runs*perRun+1)
	}
	var id uint64
	next := int64(0)
	op := func() {
		interleavedBucket(batches, runs, perRun, next, bucket, &id)
		for p, ts := range batches {
			if !s.ProcessBatch(p, ts) {
				t.Fatal("ProcessBatch declined under PolicyNone")
			}
		}
		next += bucket
	}
	for i := 0; i < 4; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
		t.Fatalf("out-of-order emission allocates %.1f times per bucket", allocs)
	}
	if emitted != 55*runs*perRun {
		t.Fatalf("emitted %d tuples, want %d", emitted, 55*runs*perRun)
	}
}

// Restore refills recycled bucket arrays: a restore after warm-up makes no
// bucket array of its own.
func TestSUnionRestoreRefillsRecycledBuckets(t *testing.T) {
	s := NewSUnion("su", SUnionConfig{Ports: 2, BucketSize: 100})
	attachLoan(s, nil, true)
	for st := int64(0); st < 1000; st += 3 {
		s.Process(int(st)%2, tuple.NewInsertion(st, st))
	}
	snap := s.Checkpoint()
	s.Restore(snap) // warm-up: fills the free list
	if allocs := testing.AllocsPerRun(20, func() { s.Restore(snap) }); allocs != 0 {
		t.Fatalf("Restore allocates %.1f times", allocs)
	}
	if s.PendingBuckets() != 10 {
		t.Fatalf("restored %d buckets, want 10", s.PendingBuckets())
	}
}
