package runtime

import "sync"

// event is one scheduled callback and the Timer handle of both clocks.
// Events are pooled: once one fires or is stopped it may return to its
// heap's free list and be handed out again, which is why a dead handle
// must be dropped (see Timer).
type event struct {
	h *eventHeap
	// Exactly one of fn/argFn is set. argFn is the closure-free path: a
	// shared function invoked with a caller-owned argument, so schedulers
	// like netsim do not allocate a fresh closure per event.
	fn      func()
	argFn   func(any)
	arg     any
	at      int64
	seq     uint64
	stopped bool
	fired   bool
	index   int    // heap index, -1 once removed
	next    *event // free-list link
}

// Stop cancels the event, eagerly removing it from the heap and recycling
// it. It reports whether the call prevented the event from firing.
func (e *event) Stop() bool {
	if e == nil {
		return false
	}
	h := e.h
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	if e.fired || e.stopped {
		return false
	}
	e.stopped = true
	if e.index >= 0 {
		h.remove(e.index)
		h.release(e)
	}
	return true
}

// Stopped reports whether Stop was called before the event fired.
func (e *event) Stopped() bool {
	if e == nil {
		return false
	}
	if mu := e.h.mu; mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	return e.stopped
}

// When returns the time at which the event is (or was) scheduled.
func (e *event) When() int64 { return e.at }

// eventHeap is the one event queue behind both clocks: a binary min-heap
// on (at, seq) — time first, scheduling order second, so simultaneous
// events fire in the order they were scheduled — plus the free list of
// recycled events. It does no locking of its own: the VirtualClock is
// single-threaded by design and the WallClock calls it under its mutex.
type eventHeap struct {
	// mu is the owning WallClock's mutex, taken by the Timer handle
	// methods because handles are stopped from any goroutine; nil on a
	// VirtualClock.
	mu     *sync.Mutex
	events []*event
	free   *event
	seq    uint64
}

// add stamps and enqueues a new event at absolute time at.
func (h *eventHeap) add(at int64, fn func(), argFn func(any), arg any) *event {
	e := h.free
	if e == nil {
		e = &event{h: h}
	} else {
		h.free = e.next
		e.next = nil
		e.stopped = false
		e.fired = false
	}
	e.fn, e.argFn, e.arg = fn, argFn, arg
	h.seq++
	e.at, e.seq = at, h.seq
	e.index = len(h.events)
	h.events = append(h.events, e)
	h.up(e.index)
	return e
}

// release recycles a fired or stopped event. Function and argument
// references are cleared so the pool does not retain caller state.
func (h *eventHeap) release(e *event) {
	e.fn, e.argFn, e.arg = nil, nil, nil
	e.stopped = true // a dead handle's Stop must stay a no-op
	e.index = -1
	e.next = h.free
	h.free = e
}

// nextAt returns the time of the earliest event.
func (h *eventHeap) nextAt() (at int64, ok bool) {
	if len(h.events) == 0 {
		return 0, false
	}
	return h.events[0].at, true
}

func (h *eventHeap) popMin() *event {
	e := h.events[0]
	h.remove(0)
	return e
}

// remove detaches the event at heap index i, restoring heap order.
func (h *eventHeap) remove(i int) {
	e := h.events[i]
	last := len(h.events) - 1
	if i != last {
		h.swap(i, last)
	}
	h.events[last] = nil
	h.events = h.events[:last]
	if i != last {
		h.down(i)
		h.up(i)
	}
	e.index = -1
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.events[i], h.events[j] = h.events[j], h.events[i]
	h.events[i].index = i
	h.events[j].index = j
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.events)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
}
