// Link-level fault injection: the TCP fabric's implementation of
// fabric.LinkControl. The cluster boss translates the spec's `partition`
// faults into timed SetLink block/unblock calls on the workers owning each
// side of the pair; tests and future chaos schedules can additionally
// inject one-way drops, fixed delay, and jitter-driven reordering.

package transport

import "borealis/internal/fabric"

var _ fabric.LinkControl = (*TCP)(nil)

// SetLink updates the directed link from → to (fabric.LinkControl) in this
// fabric's fabric.Links table — the same type netsim holds, so link state
// and delay draws mean the same thing on both fabrics. The table is
// enforced on local deliveries and at both ends of a socket: the sender drops blocked frames before they reach
// the wire, and the receiver drops frames that arrive on a link it has
// since blocked — so a partition installed on both sides kills in-flight
// frames exactly like netsim's delivery-time check.
func (t *TCP) SetLink(from, to string, st fabric.LinkState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links.Set(from, to, st)
}
