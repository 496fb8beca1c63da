package runtime

import (
	"sync"
	"testing"
	"time"
)

// TestWallPacing checks that the wall clock actually paces events against
// real time: at speed 1000, 100 ms of clock time must take roughly 100 µs
// of wall time — and, more importantly, not complete instantly.
func TestWallPacing(t *testing.T) {
	clk := NewWall(1000) // 1 clock second per real millisecond
	fired := 0
	for i := int64(1); i <= 10; i++ {
		clk.At(i*10*Millisecond, func() { fired++ })
	}
	start := time.Now()
	clk.RunFor(100 * Millisecond)
	elapsed := time.Since(start)
	if fired != 10 {
		t.Fatalf("fired %d, want 10", fired)
	}
	// 100 ms at speed 1000 is 100 µs of wall time; allow generous slop
	// upward (scheduler noise) but reject an instant return.
	if elapsed < 50*time.Microsecond {
		t.Fatalf("RunFor returned after %v; pacing is not happening", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("RunFor took %v; pacing is far too slow", elapsed)
	}
}

// TestWallConcurrentScheduling hammers the clock from several goroutines
// while the run loop drains, which is what the -race CI job exists to
// check: the heap mutex must make cross-goroutine At/Stop safe, and a
// concurrently scheduled earlier event must still fire within the horizon.
func TestWallConcurrentScheduling(t *testing.T) {
	clk := NewWall(1e6)
	var mu sync.Mutex
	fired := 0
	count := func() { mu.Lock(); fired++; mu.Unlock() }

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tm := clk.At(int64(i+1)*Millisecond, count)
				if i%3 == 0 {
					tm.Stop() // races the run loop on purpose
				}
			}
		}(g)
	}
	// Drive while the producers are still scheduling.
	done := make(chan struct{})
	go func() {
		defer close(done)
		clk.RunUntil((perG + 1) * Millisecond)
	}()
	wg.Wait()
	<-done
	clk.Run() // anything scheduled after the horizon check drains here

	mu.Lock()
	defer mu.Unlock()
	// Between 2/3 and all of the events fire depending on how the Stop
	// races resolve; the invariant is no lost un-stopped timers and no
	// double fires: fired + stopped == scheduled.
	total := goroutines * perG
	stopped := total - fired
	if stopped < 0 || stopped > (total/3)+goroutines {
		t.Fatalf("fired %d of %d (stopped %d): inconsistent with at most 1/3 Stop attempts", fired, total, stopped)
	}
}

// TestWallTickerStopRace stops tickers from a foreign goroutine while the
// run loop is ticking them.
func TestWallTickerStopRace(t *testing.T) {
	clk := NewWall(1e6)
	var mu sync.Mutex
	ticks := 0
	tk := clk.NewTicker(Millisecond, func() { mu.Lock(); ticks++; mu.Unlock() })
	done := make(chan struct{})
	go func() { defer close(done); clk.RunFor(100 * Millisecond) }()
	time.Sleep(50 * time.Microsecond)
	tk.Stop()
	<-done
	if clk.Pending() != 0 {
		t.Fatalf("stopped ticker left %d pending events", clk.Pending())
	}
}

// TestWallRunUntilHorizonSleep verifies RunUntil waits out an empty tail:
// the wall must reach the horizon even with no events scheduled there.
func TestWallRunUntilHorizonSleep(t *testing.T) {
	clk := NewWall(1000)
	start := time.Now()
	clk.RunUntil(50 * Millisecond) // 50 µs of wall time at speed 1000
	if e := time.Since(start); e < 25*time.Microsecond {
		t.Fatalf("empty RunUntil returned after %v; horizon not paced", e)
	}
	if clk.Now() != 50*Millisecond {
		t.Fatalf("Now() = %d, want %d", clk.Now(), 50*Millisecond)
	}
}

// TestWallClampsPastScheduling: a real clock cannot reject scheduling into
// the past the way the simulator does (TestSchedulingInPastPanics); it
// clamps to now and fires immediately.
func TestWallClampsPastScheduling(t *testing.T) {
	clk := NewWall(1e6)
	clk.RunFor(10 * ms)
	tm := clk.At(1*ms, func() {}) // in the past: clamps to now
	if tm.When() != 10*ms {
		t.Fatalf("When() = %d, want clamp to %d", tm.When(), 10*ms)
	}
	clk.Run()
	if clk.Now() != 10*ms {
		t.Fatalf("Now() = %d, want %d", clk.Now(), 10*ms)
	}
}
