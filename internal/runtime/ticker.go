package runtime

import "sync"

// clockTicker is the Ticker of both clocks: it reschedules a one-shot timer
// on its Clock after each tick. Its own mutex makes Stop safe from any
// goroutine (the WallClock fires callbacks outside its heap lock, so a
// concurrent Stop could otherwise race the reschedule). Lock order is
// always ticker → clock, on both the tick and the Stop path.
type clockTicker struct {
	mu       sync.Mutex
	clk      Clock
	interval int64
	fn       func()
	tickFn   func() // bound once; rescheduling allocates no new closure
	timer    Timer
	stopped  bool
}

func newClockTicker(clk Clock, interval int64, fn func()) *clockTicker {
	if interval <= 0 {
		panic("runtime: ticker interval must be positive")
	}
	tk := &clockTicker{clk: clk, interval: interval, fn: fn}
	tk.tickFn = tk.tick
	tk.mu.Lock()
	tk.timer = clk.After(interval, tk.tickFn)
	tk.mu.Unlock()
	return tk
}

func (tk *clockTicker) tick() {
	tk.mu.Lock()
	tk.timer = nil
	if tk.stopped {
		tk.mu.Unlock()
		return
	}
	tk.mu.Unlock()
	tk.fn()
	tk.mu.Lock()
	if !tk.stopped {
		tk.timer = tk.clk.After(tk.interval, tk.tickFn)
	}
	tk.mu.Unlock()
}

// Stop cancels all future ticks; calling it from inside the tick callback
// is allowed.
func (tk *clockTicker) Stop() {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if tk.stopped {
		return
	}
	tk.stopped = true
	if tk.timer != nil {
		tk.timer.Stop()
		tk.timer = nil
	}
}
