package runtime

import "testing"

// The hot paths schedule through AfterCall/AtCall (netsim deliveries,
// engine service timers) on the Clock interface, and that seam must stay
// allocation-free in steady state:
//
//	go test ./internal/runtime -bench . -benchmem

// BenchmarkClockDispatch is the schedule-and-fire loop through the Clock
// interface; it must report 0 B/op.
func BenchmarkClockDispatch(b *testing.B) {
	v := NewVirtual()
	var clk Clock = v
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.AfterCall(1, fn, nil)
		v.Step()
	}
}

// BenchmarkClockDispatchStopPath exercises the schedule-then-cancel path
// (SUnion timer re-arms, stall-timer resets) through the interface.
func BenchmarkClockDispatchStopPath(b *testing.B) {
	var clk Clock = NewVirtual()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := clk.After(1, fn)
		tm.Stop()
	}
}

// BenchmarkVirtualSchedule exercises the scheduler's hottest pattern: the
// SUnion re-arm cycle, where a timer is armed, cancelled, re-armed at a
// different instant, and finally fired. With the event free list this runs
// allocation-free in steady state. (BENCH_PR1.json records this loop as
// BenchmarkVtimeSchedule.)
func BenchmarkVirtualSchedule(b *testing.B) {
	s := NewVirtual()
	noop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(10, noop)
		t.Stop()
		s.After(5, noop)
		s.Step()
	}
}

// BenchmarkVirtualScheduleDeep keeps a deeper pending heap, measuring
// push/pop cost with realistic queue depth.
func BenchmarkVirtualScheduleDeep(b *testing.B) {
	s := NewVirtual()
	noop := func() {}
	for i := 0; i < 256; i++ {
		s.After(int64(1_000_000+i), noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, noop)
		s.Step()
	}
}

// BenchmarkScheduleAndRun builds and drains a fresh 1000-event queue.
func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewVirtual()
		for j := 0; j < 1000; j++ {
			s.At(int64(j%97), func() {})
		}
		s.Run()
	}
}
