package runtime

import (
	"fmt"
	"sync"
	"time"
)

// WallClock executes the event queue against real time. Events carry the
// same microsecond timestamps as on the virtual clock; the run loop fires
// each one when the wall reaches its scaled real deadline. Speed scales the
// mapping: speed 1 is true real time, speed 100 packs 100 clock seconds
// into one wall second.
//
// Concurrency model. Scheduling (At/After/AtCall/AfterCall, Timer.Stop) is
// safe from any goroutine: a mutex guards the event heap, and a scheduling
// call that creates a new earliest event wakes a sleeping run loop through
// a kick channel backed by time.Timer waits. Callbacks, however, are fired
// exclusively from the goroutine driving Run/RunFor/RunUntil — the run
// loop — with the mutex released, so operator code keeps the synchronous
// single-threaded execution contract it has on the simulator, and may
// freely call back into the clock.
//
// Time model. Now is event-anchored, not free-running: it advances to each
// fired event's timestamp and to the horizon of the current drive call,
// never in between. A callback therefore observes Now() == its scheduled
// time even when the wall is late — which keeps source timestamps (and so
// the whole serialized stream content) identical to a virtual run of the
// same program, jitter notwithstanding. Between drive calls time does not
// pass at all, exactly like the simulator. Scheduling into the past cannot
// be rejected on a real clock; it clamps to now and fires immediately.
type WallClock struct {
	mu    sync.Mutex
	q     eventHeap // guarded by mu
	now   int64     // event-anchored clock time, µs
	speed float64

	// anchor maps clock time to wall time for the current drive call:
	// real(t) = anchorReal + (t − anchorClock)/speed.
	anchorReal  time.Time
	anchorClock int64

	running bool
	// kick wakes the run loop's pacing sleep when a concurrent scheduling
	// call may have created an earlier deadline.
	kick chan struct{}

	// processed counts fired events (parity with VirtualClock.Processed).
	processed uint64
}

var _ Runtime = (*WallClock)(nil)

// NewWall returns a wall-clock runtime. Speed is the time-scale factor
// (clock microseconds per real microsecond); zero or negative means 1.
func NewWall(speed float64) *WallClock {
	if speed <= 0 {
		speed = 1
	}
	c := &WallClock{speed: speed, kick: make(chan struct{}, 1)}
	c.q.mu = &c.mu
	return c
}

// NewWallAt returns a wall-clock runtime whose clock starts at startUS
// instead of zero. A cluster worker respawned mid-scenario uses it: the
// replacement process must schedule its remaining timeline from the
// scenario time at which the old process was killed, not from t=0.
func NewWallAt(speed float64, startUS int64) *WallClock {
	c := NewWall(speed)
	if startUS > 0 {
		c.now = startUS
	}
	return c
}

// Speed returns the time-scale factor.
func (c *WallClock) Speed() float64 { return c.speed }

// Now returns the current event-anchored clock time in microseconds.
func (c *WallClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Pending returns the number of scheduled, unfired events.
func (c *WallClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.q.events)
}

// Processed returns the number of events fired so far.
func (c *WallClock) Processed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.processed
}

// At schedules fn at absolute clock time at (clamped to now).
func (c *WallClock) At(at int64, fn func()) Timer { return c.add(at, false, fn, nil, nil) }

// After schedules fn d microseconds from now (negative d = now).
func (c *WallClock) After(d int64, fn func()) Timer { return c.add(d, true, fn, nil, nil) }

// AtCall schedules fn(arg) at absolute clock time at.
func (c *WallClock) AtCall(at int64, fn func(any), arg any) Timer {
	return c.add(at, false, nil, fn, arg)
}

// AfterCall schedules fn(arg) d microseconds from now.
func (c *WallClock) AfterCall(d int64, fn func(any), arg any) Timer {
	return c.add(d, true, nil, fn, arg)
}

// NewTicker schedules fn every interval microseconds.
func (c *WallClock) NewTicker(interval int64, fn func()) Ticker {
	return newClockTicker(c, interval, fn)
}

// add enqueues an event; rel marks the first argument as a delay rather
// than an absolute time.
func (c *WallClock) add(at int64, rel bool, fn func(), argFn func(any), arg any) Timer {
	if fn == nil && argFn == nil {
		panic("runtime: nil event function")
	}
	c.mu.Lock()
	if rel {
		at = c.now + max(at, 0)
	} else if at < c.now {
		at = c.now
	}
	e := c.q.add(at, fn, argFn, arg)
	c.mu.Unlock()
	// Wake a pacing sleep: the new event may precede what the loop was
	// waiting for. A spurious kick costs one heap peek.
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return e
}

// Run fires events until none remain scheduled.
func (c *WallClock) Run() {
	for {
		c.mu.Lock()
		next, ok := c.q.nextAt()
		c.mu.Unlock()
		if !ok {
			return
		}
		c.RunUntil(next)
	}
}

// RunFor advances the clock by d microseconds of scaled time.
func (c *WallClock) RunFor(d int64) {
	c.mu.Lock()
	t := c.now + d
	c.mu.Unlock()
	c.RunUntil(t)
}

// RunUntil drives the run loop until clock time t: every event with time
// ≤ t fires at its scaled real deadline, from this goroutine, and the call
// returns once the wall reaches t (so back-to-back RunUntil calls pace a
// live, gap-free timeline). The real anchor resets at every drive call —
// time spent between drives does not eat into the schedule.
func (c *WallClock) RunUntil(t int64) {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		panic(fmt.Sprintf("runtime: WallClock run loop re-entered (RunUntil %d)", t))
	}
	c.running = true
	c.anchorReal = time.Now()
	c.anchorClock = c.now
	for {
		if at, ok := c.q.nextAt(); ok && at <= t {
			if d := c.realWaitLocked(at); d > 0 {
				c.sleepLocked(d)
				continue // the heap may have changed while asleep
			}
			e := c.q.popMin()
			if at > c.now {
				c.now = at
			}
			e.fired = true
			c.processed++
			// A fired event is not recycled here: its handle may be held
			// by another goroutine, which cannot know it fired and whose
			// Stop must stay a no-op forever.
			fn, argFn, arg := e.fn, e.argFn, e.arg
			e.fn, e.argFn, e.arg = nil, nil, nil
			c.mu.Unlock()
			if argFn != nil {
				argFn(arg)
			} else {
				fn()
			}
			c.mu.Lock()
			continue
		}
		// Nothing (left) due before the horizon: wait out the residual
		// real time, re-checking if a concurrent schedule lands earlier.
		if d := c.realWaitLocked(t); d > 0 {
			c.sleepLocked(d)
			continue
		}
		break
	}
	if t > c.now {
		c.now = t
	}
	c.running = false
	c.mu.Unlock()
}

// realWaitLocked returns how long the wall still has to travel before
// clock time v is due under the current drive anchor.
func (c *WallClock) realWaitLocked(v int64) time.Duration {
	target := c.anchorReal.Add(time.Duration(float64(v-c.anchorClock) * 1e3 / c.speed))
	return time.Until(target)
}

// sleepLocked releases the mutex and waits for d or a scheduling kick.
func (c *WallClock) sleepLocked(d time.Duration) {
	c.mu.Unlock()
	tm := time.NewTimer(d)
	select {
	case <-tm.C:
	case <-c.kick:
		tm.Stop()
	}
	c.mu.Lock()
}
