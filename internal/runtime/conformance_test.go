package runtime

import (
	"slices"
	"testing"
)

const ms = Millisecond

// The Clock contract both runtimes promise, as one table run against each:
// every case drives a fresh clock, so a case that passes on the simulator
// and fails on the wall clock (or the reverse) is a substrate divergence,
// not a component bug. The wall clock runs at speed 2000 so the largest
// horizon below (100 ms) costs 50 µs of real time.
var conformanceCases = []struct {
	name string
	run  func(t *testing.T, clk Runtime)
}{
	{"ordering and Now", func(t *testing.T, clk Runtime) {
		var got []int
		var times []int64
		clk.At(20*ms, func() { got = append(got, 2); times = append(times, clk.Now()) })
		clk.At(10*ms, func() { got = append(got, 1); times = append(times, clk.Now()) })
		// Equal timestamps fire in scheduling order.
		clk.At(30*ms, func() { got = append(got, 3) })
		clk.At(30*ms, func() { got = append(got, 4) })
		clk.Run()
		if want := []int{1, 2, 3, 4}; !slices.Equal(got, want) {
			t.Fatalf("order %v, want %v", got, want)
		}
		if times[0] != 10*ms || times[1] != 20*ms {
			t.Fatalf("callback Now() = %v, want [10ms 20ms]", times)
		}
		if clk.Now() != 30*ms {
			t.Fatalf("final Now() = %d, want %d", clk.Now(), 30*ms)
		}
	}},
	{"same-time FIFO", func(t *testing.T, clk Runtime) {
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			clk.At(5, func() { got = append(got, i) })
		}
		clk.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("same-time events not FIFO: %v", got)
			}
		}
	}},
	{"After negative clamped", func(t *testing.T, clk Runtime) {
		clk.At(100, func() {
			clk.After(-50, func() {})
		})
		clk.Run() // must not panic
		if clk.Now() != 100 {
			t.Fatalf("Now() = %d, want 100", clk.Now())
		}
	}},
	{"After and Stop", func(t *testing.T, clk Runtime) {
		fired := 0
		keep := clk.After(5*ms, func() { fired++ })
		stop := clk.After(5*ms, func() { fired++ })
		if !stop.Stop() {
			t.Fatal("Stop on a pending timer returned false")
		}
		if stop.Stop() {
			t.Fatal("second Stop returned true")
		}
		if clk.Pending() != 1 {
			t.Fatalf("pending %d after double Stop, want 1", clk.Pending())
		}
		clk.Run()
		if fired != 1 {
			t.Fatalf("fired %d callbacks, want 1", fired)
		}
		if keep.Stop() {
			t.Fatal("Stop on a fired timer returned true")
		}
		if !stop.Stopped() {
			t.Fatal("Stopped() false after Stop")
		}
	}},
	{"stopped timer does not advance the clock", func(t *testing.T, clk Runtime) {
		fired := false
		tm := clk.At(10, func() { fired = true })
		if !tm.Stop() {
			t.Fatal("Stop() = false, want true")
		}
		clk.Run()
		if fired {
			t.Fatal("stopped timer fired")
		}
		if clk.Now() != 0 {
			t.Fatalf("Now() = %d, want 0", clk.Now())
		}
	}},
	// The pooled-handle contract says a dead handle's Stop is a no-op
	// until the object is reused: stopping the dead handle while the pool
	// slot is unreused must do nothing to other timers.
	{"Stop on fired timer is inert before reuse", func(t *testing.T, clk Runtime) {
		fired := 0
		t1 := clk.At(10, func() { fired++ })
		other := clk.At(20, func() { fired++ })
		clk.RunUntil(10)
		if got := t1.Stop(); got {
			t.Fatal("Stop on a fired timer reported true")
		}
		if other.Stopped() {
			t.Fatal("dead-handle Stop leaked into a live timer")
		}
		clk.Run()
		if fired != 2 {
			t.Fatalf("fired %d, want 2", fired)
		}
	}},
	{"AtCall shared function", func(t *testing.T, clk Runtime) {
		var got []int
		fn := func(arg any) { got = append(got, arg.(int)) }
		clk.AtCall(2*ms, fn, 2)
		clk.AfterCall(1*ms, fn, 1)
		clk.Run()
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("got %v, want [1 2]", got)
		}
	}},
	{"ticker stopped from an event", func(t *testing.T, clk Runtime) {
		var ticks []int64
		tk := clk.NewTicker(100, func() { ticks = append(ticks, clk.Now()) })
		clk.At(350, func() { tk.Stop() })
		clk.Run()
		if want := []int64{100, 200, 300}; !slices.Equal(ticks, want) {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}},
	{"ticker stopped inside its tick", func(t *testing.T, clk Runtime) {
		var ticks []int64
		var tk Ticker
		tk = clk.NewTicker(10*ms, func() {
			ticks = append(ticks, clk.Now())
			if len(ticks) == 3 {
				tk.Stop()
			}
		})
		clk.RunFor(100 * ms)
		if want := []int64{10 * ms, 20 * ms, 30 * ms}; !slices.Equal(ticks, want) {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}},
	// Stopping a ticker from inside its own tick exercises the fired-timer
	// Stop path (the tick's timer is mid-fire when Stop runs). The pool
	// must stay coherent: no residual events, and a new ticker reusing a
	// recycled event must tick normally.
	{"ticker Stop inside tick is pool-safe", func(t *testing.T, clk Runtime) {
		var tk Ticker
		ticks := 0
		tk = clk.NewTicker(10, func() {
			ticks++
			tk.Stop()
		})
		clk.Run()
		if ticks != 1 {
			t.Fatalf("ticked %d times after in-tick Stop, want 1", ticks)
		}
		if clk.Pending() != 0 {
			t.Fatalf("%d events left pending by a stopped ticker", clk.Pending())
		}
		ticks2 := 0
		var tk2 Ticker
		tk2 = clk.NewTicker(5, func() {
			ticks2++
			if ticks2 == 3 {
				tk2.Stop()
			}
		})
		clk.Run()
		if ticks2 != 3 {
			t.Fatalf("recycled ticker ticked %d times, want 3", ticks2)
		}
	}},
	{"RunUntil fires exactly the due events", func(t *testing.T, clk Runtime) {
		var got []int64
		for _, at := range []int64{10, 20, 30, 40} {
			at := at
			clk.At(at, func() { got = append(got, at) })
		}
		clk.RunUntil(25)
		if len(got) != 2 {
			t.Fatalf("RunUntil(25) fired %d events, want 2", len(got))
		}
		if clk.Now() != 25 {
			t.Fatalf("Now() = %d, want 25", clk.Now())
		}
		if clk.Pending() != 2 {
			t.Fatalf("Pending() = %d, want 2", clk.Pending())
		}
		clk.RunUntil(100)
		if len(got) != 4 {
			t.Fatalf("after RunUntil(100) fired %d events, want 4", len(got))
		}
		if clk.Now() != 100 {
			t.Fatalf("Now() = %d, want 100", clk.Now())
		}
	}},
	// Events scheduled exactly at the horizon fire inside RunUntil, in
	// scheduling order, interleaved correctly with events the callbacks
	// themselves add at the same timestamp.
	{"RunUntil equal-timestamp FIFO", func(t *testing.T, clk Runtime) {
		var order []int
		clk.At(100, func() { order = append(order, 1) })
		clk.At(100, func() {
			order = append(order, 2)
			// Same-instant event added mid-drain: still before the
			// horizon, still after everything already queued at t=100.
			clk.At(100, func() { order = append(order, 4) })
		})
		clk.At(100, func() { order = append(order, 3) })
		clk.At(101, func() { order = append(order, 99) })
		clk.RunUntil(100)
		if want := []int{1, 2, 3, 4}; !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		if clk.Now() != 100 {
			t.Fatalf("Now() = %d, want 100", clk.Now())
		}
		if clk.Pending() != 1 {
			t.Fatalf("pending %d, want the t=101 event only", clk.Pending())
		}
	}},
	{"RunFor on an empty queue advances Now", func(t *testing.T, clk Runtime) {
		clk.RunFor(500)
		if clk.Now() != 500 {
			t.Fatalf("Now() = %d, want 500", clk.Now())
		}
	}},
	{"callback schedules more", func(t *testing.T, clk Runtime) {
		depth := 0
		var recur func()
		recur = func() {
			depth++
			if depth < 5 {
				clk.After(1*ms, recur)
			}
		}
		clk.After(1*ms, recur)
		clk.Run()
		if depth != 5 {
			t.Fatalf("depth %d, want 5", depth)
		}
		if clk.Now() != 5*ms {
			t.Fatalf("Now() = %d, want %d", clk.Now(), 5*ms)
		}
	}},
}

func TestClockConformance(t *testing.T) {
	clocks := []struct {
		name string
		new  func() Runtime
	}{
		{"virtual", func() Runtime { return NewVirtual() }},
		{"wall", func() Runtime { return NewWall(2000) }},
	}
	for _, c := range clocks {
		for _, tc := range conformanceCases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) { tc.run(t, c.new()) })
		}
	}
}
