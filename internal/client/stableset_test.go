package client

import (
	"math/rand"
	"testing"

	"borealis/internal/tuple"
)

// mapStableSet is the duplicate check stableSet replaced — one map of every
// stable key of the run — kept as the reference model the set must agree
// with on every input.
type mapStableSet map[stableID]bool

func (m mapStableSet) add(k stableID) bool {
	dup := m[k]
	m[k] = true
	return dup
}

// stableKeys generates a seeded key sequence: stimes advance in order, and
// each key is drawn from one of the shapes the client can see — a fresh key
// at the newest stime, a duplicate inside the newest stime, a duplicate of
// an older stime, or an out-of-order key at an older stime that is new.
// perSTime bounds the keys between stime advances; hashes come from a small
// domain so that fresh draws collide too.
func stableKeys(seed int64, n, perSTime int, older float64) []stableID {
	rng := rand.New(rand.NewSource(seed))
	var out []stableID
	stime := int64(1000)
	inSTime := 0
	for len(out) < n {
		if inSTime >= perSTime || rng.Intn(perSTime) == 0 {
			stime += 1 + rng.Int63n(20)
			inSTime = 0
		}
		k := stableID{stime: stime, hash: uint64(rng.Intn(4 * perSTime))}
		switch r := rng.Float64(); {
		case r < older/2 && len(out) > 0: // duplicate of any earlier key
			k = out[rng.Intn(len(out))]
		case r < older && len(out) > 0: // an older stime, probably new
			k.stime = out[rng.Intn(len(out))].stime
			k.hash = rng.Uint64() % 64
		default:
			inSTime++
		}
		out = append(out, k)
	}
	return out
}

func TestStableSetMatchesMap(t *testing.T) {
	cases := []struct {
		name     string
		perSTime int
		older    float64
	}{
		{"in-order", 300, 0},
		{"many-per-stime", 5000, 0},
		{"one-per-stime-with-old", 1, 0.1},
		{"old-duplicates-and-out-of-order", 200, 0.05},
		{"mostly-out-of-order", 20, 0.6},
		{"crowded-stimes-with-old", 6000, 0.05},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			var set stableSet
			ref := mapStableSet{}
			var got, want uint64
			for i, k := range stableKeys(seed, 20000, c.perSTime, c.older) {
				if set.add(k) {
					got++
				}
				if ref.add(k) {
					want++
				}
				if got != want {
					t.Fatalf("%s seed %d: after key %d %+v: %d duplicates, reference %d",
						c.name, seed, i, k, got, want)
				}
			}
			if want == 0 {
				t.Fatalf("%s seed %d: the sequence holds no duplicate", c.name, seed)
			}
			if held := set.n + len(set.late); held != len(ref) {
				t.Fatalf("%s seed %d: %d keys held, reference %d", c.name, seed, held, len(ref))
			}
		}
	}
}

// TestStableSetOldKeysLeaveSortedPrefix redelivers a run's worth of old
// stimes — new keys and duplicates — after a newer stime has been seen:
// the stime-ordered log must not move or grow, so each old key costs a
// search and a map insert rather than a shift of every newer key.
func TestStableSetOldKeysLeaveSortedPrefix(t *testing.T) {
	var set stableSet
	const n = 100000
	for i := 0; i < n; i++ {
		set.add(stableID{stime: int64(i / 100), hash: uint64(i % 100)})
	}
	first, last := &set.segs[0][0], set.segs[len(set.segs)-1]
	dups := 0
	for i := 0; i < n; i++ {
		k := stableID{stime: int64(i / 200), hash: uint64(i%200) + 50}
		if set.add(k) {
			dups++
		}
	}
	// Stimes 0..499 come back with hashes 50..249: 50..99 of each were
	// sealed already, 100..249 are new.
	if want := n / 4; dups != want {
		t.Fatalf("%d duplicates among redelivered keys, want %d", dups, want)
	}
	if &set.segs[0][0] != first || set.segs[len(set.segs)-1] != last || set.n != n {
		t.Fatalf("old keys moved the log: %d keys in %d segments", set.n, len(set.segs))
	}
	if len(set.late) != n-n/4 {
		t.Fatalf("late holds %d keys, want %d", len(set.late), n-n/4)
	}
}

// TestStableSetLateKeysInCrowdedStimes fills stimes of 5 000 to 7 000 keys —
// each spans several segments — then sends keys older than the newest
// stime: duplicates and new keys in the first stime, the last full one, one
// whose keys straddle a segment boundary (probed at the keys just before and
// after it), stimes with no keys, and stimes before the first. The set must
// agree with the map reference on every key.
func TestStableSetLateKeysInCrowdedStimes(t *testing.T) {
	var set stableSet
	ref := mapStableSet{}
	check := func(what string, k stableID) {
		t.Helper()
		if got, want := set.add(k), ref.add(k); got != want {
			t.Fatalf("%s %+v: duplicate %v, reference %v", what, k, got, want)
		}
	}
	sizes := []int{5000, 7000, 6000, 5500}
	var logged []stableID
	for g, size := range sizes {
		for j := 0; j < size; j++ {
			k := stableID{stime: int64(10 * (g + 1)), hash: uint64(j*7919) % 100003}
			check("in order", k)
			logged = append(logged, k)
		}
	}
	check("newer stime", stableID{stime: 100, hash: 1})
	if set.n != len(logged)+1 {
		t.Fatalf("log holds %d keys, want %d", set.n, len(logged)+1)
	}
	// Keys around every segment boundary, both sides, redelivered.
	for b := stableSegSize; b < len(logged); b += stableSegSize {
		check("boundary duplicate", logged[b-1])
		check("boundary duplicate", logged[b])
		check("boundary stime, new", stableID{stime: logged[b].stime, hash: 200000 + uint64(b)})
	}
	last := len(sizes) - 1
	for _, g := range []int{0, last} {
		stime := int64(10 * (g + 1))
		check("group duplicate", stableID{stime: stime, hash: 0})
		check("group new", stableID{stime: stime, hash: 100003})
		check("group new again", stableID{stime: stime, hash: 100003})
	}
	for _, stime := range []int64{5, 15, 45, 99} {
		check("empty stime", stableID{stime: stime, hash: 0})
		check("empty stime again", stableID{stime: stime, hash: 0})
	}
}

// BenchmarkStableSetAdd times in-order keys, 16 to a stime, and asserts
// that they allocate nothing beyond their share of a segment: adding one
// segment's worth of keys costs one allocation, the segment itself.
func BenchmarkStableSetAdd(b *testing.B) {
	var set stableSet
	next := 0
	add := func() {
		set.add(stableID{stime: int64(next / 16), hash: uint64(next % 16)})
		next++
	}
	for i := 0; i < 4*stableSegSize; i++ {
		add()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add()
	}
	b.StopTimer()
	segment := func() {
		for i := 0; i < stableSegSize; i++ {
			add()
		}
	}
	if a := testing.AllocsPerRun(100, segment); a > 1 {
		b.Fatalf("%d in-order keys allocate %.2f times, want at most 1 (their segment)", stableSegSize, a)
	}
}

// TestClientCountsStableDuplicates checks that a stable tuple delivered
// twice is counted — at the newest stime and at an older one — and that a
// tentative copy or an equal payload at another stime is not.
func TestClientCountsStableDuplicates(t *testing.T) {
	sim, up, c := setup(t)
	now := sim.Now()
	// Through the proxy: two equal stable tuples in one bucket.
	up.push(stable(1, now, 7), stable(2, now, 7), tuple.NewBoundary(now+100*ms))
	sim.RunFor(1 * sec)
	if d := c.Stats().StableDuplicates; d != 1 {
		t.Fatalf("StableDuplicates = %d after a duplicated stable tuple, want 1", d)
	}
	// Straight into the application layer: newer stimes, then an old one.
	c.consume(stable(3, now+1, 7))                                                   // same payload, new stime
	c.consume(tuple.Tuple{Type: tuple.Tentative, ID: 4, STime: now + 1}.WithData(7)) // tentative: never counted
	c.consume(stable(5, now+2, 1))
	c.consume(stable(6, now, 7))   // duplicate of an older stime
	c.consume(stable(7, now, 8))   // older stime, new payload
	c.consume(stable(8, now+2, 1)) // duplicate at the newest stime
	if d := c.Stats().StableDuplicates; d != 3 {
		t.Fatalf("StableDuplicates = %d, want 3", d)
	}
}
