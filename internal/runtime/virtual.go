package runtime

import "fmt"

// VirtualClock is the deterministic discrete-event simulator: the clock and
// scheduler of every virtual run. Time is a counter that jumps from event
// to event; Run drains the queue in (time, sequence) order, so two events
// scheduled for the same instant fire in the order they were scheduled and
// every simulation is fully reproducible. It is not safe for concurrent
// use: the whole simulation is single-threaded by design.
//
// Events are pooled — scheduling through AtCall/AfterCall allocates
// nothing in steady state (see BenchmarkClockDispatch) — so handles follow
// the Timer lifetime contract strictly: a fired or stopped handle is dead
// and its Stop is a no-op only until the event is reused.
type VirtualClock struct {
	now int64
	q   eventHeap
	// processed counts fired events, for tests and progress reporting.
	processed uint64
}

var _ Runtime = (*VirtualClock)(nil)

// NewVirtual returns a virtual runtime whose clock starts at 0.
func NewVirtual() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time in microseconds.
func (c *VirtualClock) Now() int64 { return c.now }

// Processed returns the number of events fired so far.
func (c *VirtualClock) Processed() uint64 { return c.processed }

// Pending returns the number of events currently scheduled. Stopped timers
// are removed eagerly, so every counted event will fire.
func (c *VirtualClock) Pending() int { return len(c.q.events) }

// add enqueues an event at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (c *VirtualClock) add(t int64, fn func(), argFn func(any), arg any) Timer {
	if fn == nil && argFn == nil {
		panic("runtime: nil event function")
	}
	if t < c.now {
		panic(fmt.Sprintf("runtime: scheduling event at %d before now %d", t, c.now))
	}
	return c.q.add(t, fn, argFn, arg)
}

// At schedules fn at absolute virtual time t.
func (c *VirtualClock) At(t int64, fn func()) Timer { return c.add(t, fn, nil, nil) }

// After schedules fn d microseconds from now (negative d = now).
func (c *VirtualClock) After(d int64, fn func()) Timer {
	return c.add(c.now+max(d, 0), fn, nil, nil)
}

// AtCall schedules fn(arg) at absolute virtual time t, allocation-free in
// steady state.
func (c *VirtualClock) AtCall(t int64, fn func(any), arg any) Timer {
	return c.add(t, nil, fn, arg)
}

// AfterCall schedules fn(arg) d microseconds from now (negative d = now).
func (c *VirtualClock) AfterCall(d int64, fn func(any), arg any) Timer {
	return c.add(c.now+max(d, 0), nil, fn, arg)
}

// NewTicker schedules fn every interval microseconds.
func (c *VirtualClock) NewTicker(interval int64, fn func()) Ticker {
	return newClockTicker(c, interval, fn)
}

// Step fires the next event, if any, advancing the clock to its time.
// It reports whether an event fired.
func (c *VirtualClock) Step() bool {
	if len(c.q.events) == 0 {
		return false
	}
	e := c.q.popMin()
	c.now = e.at
	e.fired = true
	c.processed++
	// Recycle only after the callback returns: a handle retained through
	// the callback (Ticker.Stop from inside the tick) still sees
	// fired==true rather than a reused event.
	defer c.q.release(e)
	if e.argFn != nil {
		e.argFn(e.arg)
	} else {
		e.fn()
	}
	return true
}

// Run fires events until the queue is empty.
func (c *VirtualClock) Run() {
	for c.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (c *VirtualClock) RunUntil(t int64) {
	for {
		at, ok := c.q.nextAt()
		if !ok || at > t {
			break
		}
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// RunFor runs the simulation for d microseconds of virtual time.
func (c *VirtualClock) RunFor(d int64) { c.RunUntil(c.now + d) }
