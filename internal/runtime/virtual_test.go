package runtime

import (
	"testing"
	"testing/quick"
)

// VirtualClock-only behaviour; the contract it shares with the WallClock is
// in conformance_test.go.

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewVirtual()
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(50, func() {})
}

func TestProcessedAndPending(t *testing.T) {
	s := NewVirtual()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", s.Processed())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// Property: for any set of non-negative offsets, events fire in sorted order
// and the clock never moves backwards.
func TestQuickOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewVirtual()
		var fired []int64
		for _, off := range offsets {
			at := int64(off)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1] > fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(t) fires exactly the events with time ≤ t.
func TestQuickRunUntil(t *testing.T) {
	f := func(offsets []uint16, cut uint16) bool {
		s := NewVirtual()
		fired := 0
		want := 0
		for _, off := range offsets {
			if int64(off) <= int64(cut) {
				want++
			}
			s.At(int64(off), func() { fired++ })
		}
		s.RunUntil(int64(cut))
		return fired == want && s.Now() == int64(cut)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
