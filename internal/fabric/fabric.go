// Package fabric defines the minimal message-fabric surface the protocol
// components (node, source, client) run on. Two implementations exist:
// internal/netsim, the deterministic in-process simulator every virtual run
// uses, and internal/transport, the TCP fabric the cluster runtime uses to
// span real processes. Components depend only on this interface, so the same
// node code runs unchanged on either.
package fabric

// Handler receives a message addressed to a registered endpoint. The fabric
// serializes all deliveries for a process into its clock's run loop, so
// handlers never run concurrently with each other or with timer callbacks.
type Handler func(from string, msg any)

// Fabric is the send/receive surface between endpoints identified by string
// IDs. Implementations must preserve per-(from,to) FIFO ordering and must
// deliver asynchronously (never inside the Send call), matching the
// simulator's semantics that node code was written against.
//
// A DataMsg's tuple array (node.DataMsg; docs/ARCHITECTURE.md, "Who owns a
// tuple array") is either given or lent. A given array is never written by
// its sender again, and the fabric delivers it itself. Any other array is
// lent for the duration of Send only: the fabric encodes or copies it before
// Send returns, so the sender may overwrite it at once. A copy goes to a
// handler registered with Register as an array it owns, and to one
// registered through a Lender as an array lent from the fabric's pool.
type Fabric interface {
	// Register installs the handler for a local endpoint, replacing any
	// previous registration (crash/restart re-registers). The handler may
	// keep every tuple array it receives: none is lent to it.
	Register(id string, h Handler)
	// Send queues msg for delivery from one endpoint to another. Sends
	// from a crashed (down) endpoint are dropped. Sending to an endpoint
	// the fabric has no route for is a programming error on the simulator
	// (panic); on a real transport the frame is forwarded to the remote
	// process that owns it, or dropped if the peer is unreachable.
	Send(from, to string, msg any)
	// SetDown marks a local endpoint crashed (true) or alive (false). A
	// down endpoint neither sends nor receives.
	SetDown(id string, down bool)
}

// Lender is the optional interface of a Fabric that lends the arrays it
// copies to the endpoints that promise to return them. netsim and the TCP
// transport implement it; a decorating fabric that does not is treated as
// one that gives every endpoint arrays it owns.
type Lender interface {
	Fabric
	// RegisterReturning is Register for a handler that keeps no tuple
	// array it receives and returns each lent one to its pool
	// (node.DataMsg.Pool) once nothing reads it any more.
	RegisterReturning(id string, h Handler)
}

// LinkState is the injected fault state of one directed link, as one
// SetLink call describes it. The zero value is a healthy link.
type LinkState struct {
	// Block drops every message on the link — one direction of a network
	// partition. Messages already in flight are dropped at delivery time,
	// like a broken connection discarding its socket buffers. Blocks are
	// counted per link: every SetLink with Block set adds one, every
	// SetLink with it clear releases one (a link with none stays open),
	// and the link drops while any remain — so two overlapping partitions
	// of one pair keep it severed until the second heals.
	Block bool
	// DelayUS adds a fixed one-way delay (microseconds of the fabric's
	// clock) to every message on the link.
	DelayUS int64
	// JitterUS adds a per-message random extra delay in [0, JitterUS).
	// Jittered messages bypass the link's FIFO clamp, so a non-zero
	// jitter reorders messages — the draw sequence is deterministic per
	// link (seeded from the endpoint names), so runs are reproducible.
	JitterUS int64
}

// LinkControl is the chaos surface a fabric may expose alongside Fabric:
// per-directed-link fault injection. Both implementations provide it over
// the one Links table — netsim so virtual runs and the fuzzer can exercise
// the same faults, and the TCP transport so the cluster boss can translate
// the spec's `partition` faults into timed link-block actions on real
// sockets.
type LinkControl interface {
	// SetLink sets the delay and jitter of the directed link from → to
	// and adds (st.Block) or releases (otherwise) one block. Partitioning
	// a pair means blocking both directions.
	SetLink(from, to string, st LinkState)
}
