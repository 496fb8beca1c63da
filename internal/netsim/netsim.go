// Package netsim simulates the network connecting processing nodes, data
// sources, and clients. It provides what the paper assumes of the transport
// (§2.2): reliable, in-order delivery between any pair of endpoints, with
// small latencies, plus the failure modes DPC must tolerate: link failures,
// network partitions, and endpoint crashes.
//
// Like a real transport, Send copies a DataMsg's lent tuple array before it
// returns (fabric.Fabric): into an array lent from the Net's pool for an
// endpoint that returns loans (fabric.Lender), and into one the receiver
// owns for any other. A given array is delivered itself.
//
// Delivery is FIFO per ordered (from, to) pair. Messages sent while the pair
// is partitioned, or while either endpoint is down, are silently dropped —
// the behaviour of a broken TCP connection as observed by DPC, whose failure
// detection relies on missing boundary tuples and keep-alive timeouts rather
// than transport errors.
package netsim

import (
	"fmt"
	"sort"

	"borealis/internal/fabric"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Handler receives messages addressed to an endpoint.
type Handler = fabric.Handler

// Net implements the fabric surface protocol components run on; the TCP
// transport (internal/transport) is the other implementation.
var _ fabric.Lender = (*Net)(nil)

// tupleCopier is node.DataMsg, which netsim cannot import: node's tests run
// on netsim.
type tupleCopier interface {
	CopyTuples(pool *tuple.LoanPool) any
}

// DefaultLatency is the one-way delivery latency used for links that have
// no explicit override. The paper assumes network latency is small compared
// with the availability bound X.
const DefaultLatency = 5 * runtime.Millisecond

type pair struct{ a, b string }

func orderedPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

type endpoint struct {
	handler Handler
	// returns marks a handler registered with RegisterReturning: it is
	// lent the copies it gets and gives them back.
	returns bool
	down    bool
	// idx is the endpoint's dense index, given at its first Register.
	idx int
	// lastArrival enforces FIFO per destination: a message may not be
	// delivered before one sent earlier on the same ordered link. It is
	// indexed by the sender's idx and grows when a sender first sends.
	lastArrival []int64
}

// delivery is one in-flight message. Records are pooled per Net: a Send
// takes one from the free list and the delivery callback returns it, so the
// steady-state data plane schedules messages without allocating.
type delivery struct {
	from, to string
	src, dst *endpoint
	msg      any
	lent     bool // Send copied msg's tuples, if any, into a loan
	next     *delivery
}

// Net is the simulated network fabric.
type Net struct {
	clk        runtime.Clock
	endpoints  map[string]*endpoint
	latency    map[pair]int64
	links      fabric.Links // Partition/Heal and SetLink faults, per direction
	defaultLat int64

	// deliverFn is the shared delivery callback (bound once so Send does
	// not allocate a closure per message); dfree is the record free list.
	deliverFn func(any)
	dfree     *delivery

	// loans lends the copies Send makes for returning endpoints.
	loans tuple.LoanPool

	// Delivered counts messages handed to handlers; Dropped counts
	// messages lost to partitions or downed endpoints.
	Delivered uint64
	Dropped   uint64
}

// New returns a network fabric driven by the given clock — the virtual
// simulator for deterministic runs, or a wall clock for paced real-time
// execution (latencies then consume real microseconds).
func New(clk runtime.Clock) *Net {
	n := &Net{
		clk:        clk,
		endpoints:  make(map[string]*endpoint),
		latency:    make(map[pair]int64),
		defaultLat: DefaultLatency,
	}
	n.deliverFn = n.deliver
	return n
}

// SetDefaultLatency overrides the fabric-wide one-way latency.
func (n *Net) SetDefaultLatency(d int64) {
	if d < 0 {
		panic("netsim: negative latency")
	}
	n.defaultLat = d
}

// Register attaches a handler to an endpoint id, creating the endpoint if
// needed. Registering twice replaces the handler (used by crash-restart).
// The handler owns every tuple array it receives and may keep it.
func (n *Net) Register(id string, h Handler) { n.register(id, h, false) }

// RegisterReturning is Register for a handler that returns the arrays lent
// to it (fabric.Lender).
func (n *Net) RegisterReturning(id string, h Handler) { n.register(id, h, true) }

func (n *Net) register(id string, h Handler, returns bool) {
	if h == nil {
		panic("netsim: nil handler for " + id)
	}
	ep := n.endpoints[id]
	if ep == nil {
		ep = &endpoint{idx: len(n.endpoints)}
		n.endpoints[id] = ep
	}
	ep.handler, ep.returns = h, returns
}

// Endpoints returns the registered endpoint ids in sorted order.
func (n *Net) Endpoints() []string {
	ids := make([]string, 0, len(n.endpoints))
	for id := range n.endpoints {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SetLatency sets the one-way latency between a and b (both directions).
func (n *Net) SetLatency(a, b string, d int64) {
	if d < 0 {
		panic("netsim: negative latency")
	}
	n.latency[orderedPair(a, b)] = d
}

// Latency returns the one-way latency between a and b.
func (n *Net) Latency(a, b string) int64 {
	if d, ok := n.latency[orderedPair(a, b)]; ok {
		return d
	}
	return n.defaultLat
}

// Partition severs communication between a and b: one block on each
// direction of the link table. In-flight messages are dropped at their
// scheduled delivery time.
func (n *Net) Partition(a, b string) {
	n.links.Block(a, b)
	n.links.Block(b, a)
}

// Heal releases one Partition of a and b; the pair reconnects once every
// overlapping partition of it has healed.
func (n *Net) Heal(a, b string) {
	n.links.Unblock(a, b)
	n.links.Unblock(b, a)
}

// PartitionGroups severs every link between the two groups, simulating a
// network partition that splits the system (§2.2).
func (n *Net) PartitionGroups(g1, g2 []string) {
	for _, a := range g1 {
		for _, b := range g2 {
			n.Partition(a, b)
		}
	}
}

// HealGroups restores every link between the two groups.
func (n *Net) HealGroups(g1, g2 []string) {
	for _, a := range g1 {
		for _, b := range g2 {
			n.Heal(a, b)
		}
	}
}

// Partitioned reports whether a and b cannot currently communicate in
// either direction.
func (n *Net) Partitioned(a, b string) bool {
	return n.links.Blocked(a, b) && n.links.Blocked(b, a)
}

var _ fabric.LinkControl = (*Net)(nil)

// SetLink is the directed, per-link counterpart of Partition/Heal
// (fabric.LinkControl), sharing the link table — and so the fault surface
// — with the TCP transport: Block drops at delivery time like a partition,
// DelayUS stretches the link latency, and JitterUS draws a deterministic
// per-message extra delay that bypasses the FIFO clamp — the simulator's
// only source of reordering.
func (n *Net) SetLink(from, to string, st fabric.LinkState) { n.links.Set(from, to, st) }

// SetDown marks an endpoint as crashed (true) or recovered (false). A downed
// endpoint neither sends nor receives; messages in flight to it are dropped.
func (n *Net) SetDown(id string, down bool) {
	ep := n.endpoints[id]
	if ep == nil {
		panic("netsim: unknown endpoint " + id)
	}
	ep.down = down
}

// Down reports whether the endpoint is crashed.
func (n *Net) Down(id string) bool {
	ep := n.endpoints[id]
	return ep != nil && ep.down
}

// Send delivers msg from one endpoint to another after the link latency,
// preserving FIFO order per (from, to) pair. Sends from or to a downed
// endpoint, or across a partition, are dropped. A DataMsg's lent tuples are
// copied before Send returns.
func (n *Net) Send(from, to string, msg any) {
	src := n.endpoints[from]
	dst := n.endpoints[to]
	if src == nil {
		panic(fmt.Sprintf("netsim: send from unregistered endpoint %q", from))
	}
	if dst == nil {
		panic(fmt.Sprintf("netsim: send to unregistered endpoint %q", to))
	}
	if src.down {
		n.Dropped++
		return
	}
	extra, jittered := n.links.Delay(from, to)
	at := n.clk.Now() + n.Latency(from, to) + extra
	// FIFO: never deliver before a message sent earlier on this link.
	// A jittered link deliberately skips the clamp — reordering is the
	// fault being injected.
	if !jittered {
		if src.idx >= len(dst.lastArrival) {
			dst.lastArrival = append(dst.lastArrival, make([]int64, len(n.endpoints)-len(dst.lastArrival))...)
		}
		if prev := dst.lastArrival[src.idx]; at < prev {
			at = prev
		}
		dst.lastArrival[src.idx] = at
	}
	lent := false
	if m, ok := msg.(tupleCopier); ok {
		var pool *tuple.LoanPool
		if lent = dst.returns; lent {
			pool = &n.loans
		}
		if c := m.CopyTuples(pool); c != nil {
			msg = c
		}
	}
	d := n.dfree
	if d == nil {
		d = &delivery{}
	} else {
		n.dfree = d.next
		d.next = nil
	}
	d.from, d.to, d.src, d.dst, d.msg, d.lent = from, to, src, dst, msg, lent
	n.clk.AtCall(at, n.deliverFn, d)
}

// deliver consumes one pooled delivery record at its scheduled time.
func (n *Net) deliver(x any) {
	d := x.(*delivery)
	from, to, src, dst, msg, lent := d.from, d.to, d.src, d.dst, d.msg, d.lent
	d.src, d.dst, d.msg = nil, nil, nil
	d.next = n.dfree
	n.dfree = d
	// Evaluate failure state at delivery time: a partition that
	// happened while the message was in flight kills it, like a
	// broken connection discarding its socket buffers.
	if dst.down || src.down || n.links.Blocked(from, to) {
		n.Dropped++
		return
	}
	if dst.handler == nil {
		n.Dropped++
		return
	}
	if lent && !dst.returns {
		// Re-registered as a keeper in flight: it gets a copy of its own,
		// and the loan is left to the garbage collector.
		if c := msg.(tupleCopier).CopyTuples(nil); c != nil {
			msg = c
		}
	}
	n.Delivered++
	dst.handler(from, msg)
}

// Reachable reports whether a message sent now from a to b would be
// delivered (both endpoints up and the a → b link not blocked). The
// failure detectors do NOT use this — they rely on timeouts like the real
// system — but tests and the failure injector do.
func (n *Net) Reachable(a, b string) bool {
	ea, eb := n.endpoints[a], n.endpoints[b]
	if ea == nil || eb == nil || ea.down || eb.down {
		return false
	}
	return !n.links.Blocked(a, b)
}
