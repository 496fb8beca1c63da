package operator

// This file carries the reference implementation for the SUnion bucket
// index: refSUnion is a verbatim copy of the original map[int64]*bucket
// implementation (full-map scans in earliestPending, sort.SliceStable
// emission). The property test drives both implementations through
// randomized port/bucket/policy schedules on a shared simulator and
// requires every emission — data, boundaries, and tentative-boundary
// watermarks — to be identical, tuple for tuple.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

type refBucket struct {
	Tuples       []tuple.Tuple
	FirstArrival int64
	HasTentative bool
}

type refSUnion struct {
	Base
	cfg SUnionConfig

	bounds      []int64
	buckets     map[int64]*refBucket
	cursor      int64
	sentBound   int64
	recDoneSeen []bool

	policy        DelayPolicy
	tentAllowedAt int64
	tentBounds    []int64
	sentTentBound int64
	timer         runtime.Timer
	signaled      bool
	droppedLate   uint64
	droppedUndo   uint64
}

func newRefSUnion(name string, cfg SUnionConfig) *refSUnion {
	cfg.normalize()
	s := &refSUnion{
		Base:          NewBase(name),
		cfg:           cfg,
		bounds:        make([]int64, cfg.Ports),
		tentBounds:    make([]int64, cfg.Ports),
		buckets:       make(map[int64]*refBucket),
		sentBound:     -1,
		sentTentBound: -1,
		recDoneSeen:   make([]bool, cfg.Ports),
	}
	for i := range s.bounds {
		s.bounds[i] = -1
		s.tentBounds[i] = -1
	}
	return s
}

func (s *refSUnion) Inputs() int { return s.cfg.Ports }

func (s *refSUnion) OldestPendingArrival() int64 {
	oldest := int64(-1)
	for _, b := range s.buckets {
		if len(b.Tuples) == 0 {
			continue
		}
		if oldest < 0 || b.FirstArrival < oldest {
			oldest = b.FirstArrival
		}
	}
	if oldest < 0 {
		return s.Now()
	}
	return oldest
}

func (s *refSUnion) SetPolicy(p DelayPolicy) {
	if p == s.policy {
		return
	}
	prev := s.policy
	s.policy = p
	if p == PolicyNone {
		s.signaled = false
		s.stopTimer()
		return
	}
	if prev == PolicyNone {
		base := s.OldestPendingArrival()
		if now := s.Now(); now < base {
			base = now
		}
		s.tentAllowedAt = base + s.delayBudget()
		if !s.signaled {
			s.signaled = true
			if env := s.Env(); env != nil && env.Signal != nil {
				env.Signal(Signal{Kind: SigUpFailure, Op: s.Name()})
			}
		}
	}
	s.pump()
}

func (s *refSUnion) delayBudget() int64 {
	return int64(float64(s.cfg.Delay) * s.cfg.SafetyFactor)
}

func (s *refSUnion) bucketStart(stime int64) int64 {
	b := stime / s.cfg.BucketSize * s.cfg.BucketSize
	if stime < 0 && stime%s.cfg.BucketSize != 0 {
		b -= s.cfg.BucketSize
	}
	return b
}

func (s *refSUnion) Process(port int, t tuple.Tuple) {
	switch {
	case t.IsData():
		start := s.bucketStart(t.STime)
		if start < s.cursor {
			s.droppedLate++
			return
		}
		b := s.buckets[start]
		if b == nil {
			b = &refBucket{FirstArrival: s.Now()}
			s.buckets[start] = b
		}
		if len(b.Tuples) == 0 {
			b.FirstArrival = s.Now()
		}
		t.Src = int32(port)
		b.Tuples = append(b.Tuples, t)
		if t.Type == tuple.Tentative {
			b.HasTentative = true
		}
		s.pump()
	case t.Type == tuple.Boundary:
		if t.Src == 1 {
			if t.STime > s.tentBounds[port] {
				s.tentBounds[port] = t.STime
				s.pump()
			}
			return
		}
		if t.STime > s.bounds[port] {
			s.bounds[port] = t.STime
			s.pump()
		}
	case t.Type == tuple.RecDone:
		s.recDoneSeen[port] = true
		for _, ok := range s.recDoneSeen {
			if !ok {
				return
			}
		}
		for i := range s.recDoneSeen {
			s.recDoneSeen[i] = false
		}
		s.Emit(t)
	case t.Type == tuple.Undo:
		s.droppedUndo++
	}
}

func (s *refSUnion) stableThrough() int64 {
	min := s.bounds[0]
	for _, b := range s.bounds[1:] {
		if b < min {
			min = b
		}
	}
	return min
}

func (s *refSUnion) pump() {
	stable := s.stableThrough()
	now := s.Now()
	advanced := false
	armed := false
	for {
		end := s.cursor + s.cfg.BucketSize
		b := s.buckets[s.cursor]
		empty := b == nil || len(b.Tuples) == 0
		hasTent := b != nil && b.HasTentative
		if stable >= end && !hasTent {
			if s.policy == PolicyDelay && !empty {
				if due := b.FirstArrival + s.delayBudget(); now < due {
					s.armTimer(due)
					armed = true
					break
				}
			}
			if !empty {
				s.emitBucket(b, false)
			}
			delete(s.buckets, s.cursor)
			s.cursor = end
			advanced = true
			continue
		}
		if s.policy == PolicyNone || s.policy == PolicySuspend {
			break
		}
		lead := s.earliestPending()
		if lead == nil {
			break
		}
		due := s.releaseAt(lead)
		if now < due {
			s.armTimer(due)
			armed = true
			break
		}
		for s.cursor <= lead.start {
			bb := s.buckets[s.cursor]
			if bb != nil && len(bb.Tuples) > 0 {
				s.emitBucket(bb, true)
			}
			delete(s.buckets, s.cursor)
			s.cursor += s.cfg.BucketSize
		}
		advanced = true
	}
	if advanced || stable > s.sentBound {
		wm := stable
		if s.cursor < wm {
			wm = s.cursor
		}
		if wm > s.sentBound {
			s.sentBound = wm
			s.Emit(tuple.NewBoundary(wm))
		}
	}
	if s.cfg.TentativeBoundaries && advanced && s.cursor > s.sentBound && s.cursor > s.sentTentBound {
		s.sentTentBound = s.cursor
		tb := tuple.NewBoundary(s.cursor)
		tb.Src = 1
		s.Emit(tb)
	}
	if !armed {
		s.stopTimer()
	}
}

type refPending struct {
	start  int64
	bucket *refBucket
}

func (s *refSUnion) earliestPending() *refPending {
	var best *refPending
	for start, b := range s.buckets {
		if start < s.cursor || len(b.Tuples) == 0 {
			continue
		}
		if best == nil || start < best.start {
			best = &refPending{start: start, bucket: b}
		}
	}
	return best
}

func (s *refSUnion) tentativelyComplete(start int64) bool {
	end := start + s.cfg.BucketSize
	for i := range s.bounds {
		wm := s.bounds[i]
		if s.tentBounds[i] > wm {
			wm = s.tentBounds[i]
		}
		if wm < end {
			return false
		}
	}
	return true
}

func (s *refSUnion) releaseAt(p *refPending) int64 {
	switch s.policy {
	case PolicyDelay:
		return p.bucket.FirstArrival + s.delayBudget()
	case PolicyProcess:
		at := p.bucket.FirstArrival + s.cfg.TentativeWait
		if s.tentativelyComplete(p.start) {
			at = s.Now()
		}
		if at < s.tentAllowedAt {
			at = s.tentAllowedAt
		}
		return at
	}
	return int64(1) << 62
}

func (s *refSUnion) emitBucket(b *refBucket, tentative bool) {
	sort.SliceStable(b.Tuples, func(i, j int) bool { return tuple.Less(b.Tuples[i], b.Tuples[j]) })
	for _, t := range b.Tuples {
		if tentative {
			t = t.AsTentative()
		}
		s.Emit(t)
	}
}

func (s *refSUnion) armTimer(at int64) {
	if s.timer != nil && !s.timer.Stopped() && s.timer.When() == at {
		return
	}
	s.stopTimer()
	env := s.Env()
	if env == nil || env.After == nil || env.Now == nil {
		return
	}
	d := at - env.Now()
	s.timer = env.After(d, func() {
		s.timer = nil
		s.pump()
	})
}

func (s *refSUnion) stopTimer() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

type refState struct {
	Bounds      []int64
	Buckets     map[int64]refBucket
	Cursor      int64
	SentBound   int64
	RecDoneSeen []bool
}

func (s *refSUnion) Checkpoint() any {
	bk := make(map[int64]refBucket, len(s.buckets))
	for start, b := range s.buckets {
		bk[start] = refBucket{
			Tuples:       slices.Clone(b.Tuples),
			FirstArrival: b.FirstArrival,
			HasTentative: b.HasTentative,
		}
	}
	return refState{
		Bounds:      append([]int64(nil), s.bounds...),
		Buckets:     bk,
		Cursor:      s.cursor,
		SentBound:   s.sentBound,
		RecDoneSeen: append([]bool(nil), s.recDoneSeen...),
	}
}

func (s *refSUnion) Restore(snap any) {
	st := snap.(refState)
	copy(s.bounds, st.Bounds)
	s.buckets = make(map[int64]*refBucket, len(st.Buckets))
	for start, b := range st.Buckets {
		cp := refBucket{
			Tuples:       slices.Clone(b.Tuples),
			FirstArrival: b.FirstArrival,
			HasTentative: b.HasTentative,
		}
		s.buckets[start] = &cp
	}
	s.cursor = st.Cursor
	s.sentBound = st.SentBound
	copy(s.recDoneSeen, st.RecDoneSeen)
	s.stopTimer()
	s.signaled = false
	for i := range s.tentBounds {
		s.tentBounds[i] = -1
	}
	s.sentTentBound = -1
}

// TestSUnionMatchesMapReference drives the indexed SUnion and the original
// map-based implementation through randomized schedules and demands
// byte-identical emissions and watermarks at every step.
func TestSUnionMatchesMapReference(t *testing.T) {
	policies := []DelayPolicy{PolicyNone, PolicyProcess, PolicyDelay, PolicySuspend}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ports := 1 + rng.Intn(3)
		bucket := int64(1+rng.Intn(5)) * 10 * runtime.Millisecond
		cfg := SUnionConfig{
			Ports:               ports,
			BucketSize:          bucket,
			Delay:               int64(rng.Intn(3)) * 100 * runtime.Millisecond,
			TentativeWait:       int64(1+rng.Intn(4)) * 25 * runtime.Millisecond,
			TentativeBoundaries: rng.Intn(2) == 0,
		}

		sim := runtime.NewVirtual()
		newOut := []tuple.Tuple{}
		refOut := []tuple.Tuple{}
		su := NewSUnion("su", cfg)
		ref := newRefSUnion("ref", cfg)
		su.Attach(&Env{
			Emit: func(t tuple.Tuple) { newOut = append(newOut, t) },
			Now:  sim.Now, After: sim.After,
		})
		ref.Attach(&Env{
			Emit: func(t tuple.Tuple) { refOut = append(refOut, t) },
			Now:  sim.Now, After: sim.After,
		})

		var snapNew, snapRef any
		stime := int64(0)
		bounds := make([]int64, ports)
		checked := 0
		check := func(step int) {
			t.Helper()
			if len(newOut) != len(refOut) {
				t.Fatalf("seed %d step %d: %d emissions vs reference %d\ncfg %+v",
					seed, step, len(newOut), len(refOut), cfg)
			}
			for ; checked < len(newOut); checked++ {
				a, b := newOut[checked], refOut[checked]
				if !tuple.Equal(a, b) || a.Type != b.Type || a.Src != b.Src {
					t.Fatalf("seed %d step %d: emission %d differs: %v vs %v\ncfg %+v",
						seed, step, checked, a, b, cfg)
				}
			}
			if su.PendingBuckets() != len(pendingRef(ref)) {
				t.Fatalf("seed %d step %d: pending %d vs %d", seed, step, su.PendingBuckets(), len(pendingRef(ref)))
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 10: // data tuple, mostly advancing stime with jitter
				stime += int64(rng.Intn(int(cfg.BucketSize)))
				st := stime - int64(rng.Intn(int(2*cfg.BucketSize)))
				port := rng.Intn(ports)
				var tu tuple.Tuple
				if rng.Intn(8) == 0 {
					tu = tuple.NewTentative(st, int64(step))
				} else {
					tu = tuple.NewInsertion(st, int64(step))
				}
				tu.ID = uint64(step + 1)
				su.Process(port, tu)
				ref.Process(port, tu)
			case op < 15: // boundary (sometimes tentative boundary)
				port := rng.Intn(ports)
				bounds[port] += int64(rng.Intn(int(2 * cfg.BucketSize)))
				tb := tuple.NewBoundary(bounds[port])
				if rng.Intn(6) == 0 {
					tb.Src = 1
				}
				su.Process(port, tb)
				ref.Process(port, tb)
			case op < 17: // advance virtual time, firing flush timers
				sim.RunFor(int64(rng.Intn(int(4 * cfg.BucketSize))))
			case op < 18: // policy switch
				p := policies[rng.Intn(len(policies))]
				su.SetPolicy(p)
				ref.SetPolicy(p)
			case op < 19: // REC_DONE on every port
				rd := tuple.NewRecDone(sim.Now())
				for p := 0; p < ports; p++ {
					su.Process(p, rd)
					ref.Process(p, rd)
				}
			default: // checkpoint, or restore an earlier checkpoint
				if snapNew == nil || rng.Intn(2) == 0 {
					snapNew, snapRef = su.Checkpoint(), ref.Checkpoint()
				} else {
					su.Restore(snapNew)
					ref.Restore(snapRef)
					// Restores reset runtime policy state on both;
					// re-establish a common policy like the node
					// controller would.
					su.SetPolicy(PolicyNone)
					ref.SetPolicy(PolicyNone)
				}
			}
			check(step)
		}
		sim.Run()
		check(-1)
	}
}

func pendingRef(s *refSUnion) map[int64]*refBucket { return s.buckets }
