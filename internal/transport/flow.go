// Control-frame flow control: an ack-window per peer replacing
// drop-on-overflow for the frames the protocol cannot afford to lose.
//
// Frames fall into two classes. Data-plane frames (DataMsg, AckMsg) stay
// sheddable: dropping one looks like a broken connection, and DPC already
// recovers through sequence gaps and resubscription replay. Control-plane
// frames (subscribe/unsubscribe, keep-alive request/response, reconcile
// control) are never shed by the queue: each peer has a credit window of
// unacked control frames, the receiver acks every control frame it reads
// off the socket with a flowAck ridden back on the same connection, and a
// sender that exhausts the window or finds the queue full blocks with
// backoff — so a saturated replay storm degrades to slow instead of
// silently eating the subscribe that would have ended it. A stall that
// outlives CtlTimeout drops the frame (counted in DroppedCtl) so a dead or
// wedged peer cannot freeze the sender forever.

package transport

import (
	"sync"
	"time"

	"borealis/internal/node"
)

// isCtl reports whether a message is control-class: never shed by queue
// overflow, window-accounted and acked by the receiver.
func isCtl(msg any) bool {
	switch msg.(type) {
	case node.SubscribeMsg, node.UnsubscribeMsg,
		node.KeepAliveReq, node.KeepAliveResp,
		node.ReconcileReq, node.ReconcileResp, node.ReconcileDone:
		return true
	}
	return false
}

// flowWindow is one peer's control-frame credit state.
type flowWindow struct {
	mu       sync.Mutex
	inflight int
	// credit is a capacity-1 wake signal: set whenever window space may
	// have appeared (an ack arrived, or the window reset on reconnect).
	credit chan struct{}
}

func newFlowWindow() *flowWindow {
	return &flowWindow{credit: make(chan struct{}, 1)}
}

// take claims one window slot, failing when the window is exhausted.
func (w *flowWindow) take(window int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inflight >= window {
		return false
	}
	w.inflight++
	return true
}

// put returns one slot claimed by take but never sent.
func (w *flowWindow) put() {
	w.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	w.mu.Unlock()
	w.signal()
}

// ack returns n slots on receipt of a flowAck. Clamped at zero: after a
// reconnect reset, acks for frames of the previous connection may still
// arrive, and over-crediting must not drive the window negative.
func (w *flowWindow) ack(n uint64) {
	w.mu.Lock()
	w.inflight -= int(n)
	if w.inflight < 0 {
		w.inflight = 0
	}
	w.mu.Unlock()
	w.signal()
}

// reset clears the window on reconnect: frames written to the dead
// connection were lost along with their acks. Queued-but-unwritten frames
// keep their claims loosely — the clamp in ack absorbs the mismatch.
func (w *flowWindow) reset() {
	w.mu.Lock()
	w.inflight = 0
	w.mu.Unlock()
	w.signal()
}

func (w *flowWindow) signal() {
	select {
	case w.credit <- struct{}{}:
	default:
	}
}

// sendCtl enqueues one control-class frame, blocking with backoff while the
// peer's window or queue is full. Returns only after the frame is queued or
// the stall outlived CtlTimeout (the frame is then dropped and counted).
func (t *TCP) sendCtl(p *peer, frame *outFrame) {
	deadline := time.Now().Add(t.cfg.CtlTimeout)
	stalled := false
	for {
		if p.flow.take(t.cfg.CtlWindow) {
			select {
			case p.queue <- frame:
				return
			default:
				p.flow.put()
			}
		}
		if !stalled {
			stalled = true
			t.CtlStalls.Add(1)
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			putFrame(frame)
			t.drop(&t.DroppedDead)
			return
		}
		if time.Now().After(deadline) {
			putFrame(frame)
			t.drop(&t.DroppedCtl)
			return
		}
		select {
		case <-p.flow.credit:
		case <-time.After(t.cfg.CtlBackoff):
		case <-t.done:
			putFrame(frame)
			t.drop(&t.DroppedDead)
			return
		}
	}
}
