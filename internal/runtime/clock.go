// Package runtime is the scheduling seam between the DPC system and the
// substrate that executes it. Every component — the network fabric, the
// engine, processing nodes, sources, clients — schedules callbacks through
// the Clock interface instead of a concrete simulator, so the same code
// runs on two substrates:
//
//   - VirtualClock is the deterministic discrete-event simulator: time
//     is a counter that jumps from event to event, a whole hour of traffic
//     replays in milliseconds, and every run is bit-identical. This is the
//     substrate for tests, golden files and the paper experiments.
//   - WallClock paces the same event queue against real time, optionally
//     scaled (speed 100 ⇒ one virtual second takes 10 ms of wall time).
//     Callbacks fire from a single run loop, so operators keep their
//     single-threaded execution contract without any locking of their own.
//
// Both clocks queue events on one heap type (heap.go), ordered by time and
// then by scheduling sequence, and share one ticker (ticker.go), so a
// program that is deterministic under VirtualClock keeps the same event
// ordering under WallClock whenever real-time jitter does not reorder
// distinct timestamps (see docs/RUNTIME.md for the exact guarantees).
package runtime

// Common durations, in microseconds of clock time.
const (
	Microsecond int64 = 1
	Millisecond int64 = 1000
	Second      int64 = 1000 * 1000
)

// Timer is a handle to a scheduled callback. Handles are recycled after
// they fire or are stopped — callers must drop their reference at that
// point (nil the stored field as the first statement of the callback, and
// right after any Stop call). Stop on a dead handle is a no-op only until
// the event is reused, so stale handles must not be retained across
// further scheduling.
type Timer interface {
	// Stop cancels the callback if it has not fired yet, reporting
	// whether the call prevented it from firing.
	Stop() bool
	// Stopped reports whether Stop was called before the callback fired.
	Stopped() bool
	// When returns the time at which the timer is (or was) scheduled.
	When() int64
}

// Ticker fires a callback at a fixed interval until stopped.
type Ticker interface {
	// Stop cancels all future ticks. Stopping from inside the tick
	// callback is allowed.
	Stop()
}

// Clock is the scheduling surface shared by every component. All times are
// int64 microseconds; on a VirtualClock they are virtual microseconds since
// the simulation epoch, on a WallClock scaled microseconds since the run
// started. Callbacks are always invoked from the clock's single run loop —
// implementations must never run two callbacks concurrently.
type Clock interface {
	// Now returns the current time in microseconds.
	Now() int64
	// At schedules fn at absolute time t.
	At(t int64, fn func()) Timer
	// After schedules fn d microseconds from now (negative d = now).
	After(d int64, fn func()) Timer
	// AtCall schedules fn(arg) at absolute time t. The function is shared
	// across events and per-event state travels in arg, so steady-state
	// callers allocate nothing per event (the PR 1 hot path).
	AtCall(t int64, fn func(any), arg any) Timer
	// AfterCall schedules fn(arg) d microseconds from now.
	AfterCall(d int64, fn func(any), arg any) Timer
	// NewTicker schedules fn every interval microseconds, first firing at
	// now+interval.
	NewTicker(interval int64, fn func()) Ticker
}

// Runtime is a Clock that can also be driven: the entry point a deployment
// runs on. Run-family methods block the calling goroutine and invoke every
// due callback from it (the run loop).
type Runtime interface {
	Clock
	// Run fires events until none remain scheduled.
	Run()
	// RunFor advances time by d microseconds, firing every event due in
	// the window. On a WallClock this takes d/speed of real time.
	RunFor(d int64)
	// RunUntil advances time to t, firing every event with time ≤ t.
	RunUntil(t int64)
	// Pending returns the number of scheduled, unfired events.
	Pending() int
}
