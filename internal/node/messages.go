// Package node implements a DPC processing node: the Data Path (output
// buffering, subscriptions, replay and correction of downstream neighbors),
// per-input-stream Input Managers (arrival logging, undo patching, failure
// and heal detection, dual connections during upstream stabilization), the
// Consistency Manager (keep-alives, upstream switching per Table II, the
// inter-replica stagger protocol of Fig. 9), and the DPC state machine of
// Fig. 5 tying them together.
package node

import "borealis/internal/tuple"

// StreamState is the consistency state a node advertises for a stream (or
// for itself). FAILURE is never advertised; it is the state a Consistency
// Manager records for an unreachable replica.
type StreamState uint8

const (
	// StateStable: all inputs stable, outputs stable.
	StateStable StreamState = iota
	// StateUpFailure: an upstream failure is in progress; outputs may be
	// tentative.
	StateUpFailure
	// StateStabilization: the node is reconciling state and correcting
	// its outputs.
	StateStabilization
	// StateFailure: unreachable (recorded locally, never advertised).
	StateFailure
)

func (s StreamState) String() string {
	switch s {
	case StateStable:
		return "STABLE"
	case StateUpFailure:
		return "UP_FAILURE"
	case StateStabilization:
		return "STABILIZATION"
	case StateFailure:
		return "FAILURE"
	}
	return "UNKNOWN"
}

// DataMsg carries a batch of tuples of one stream from an upstream
// endpoint to a subscriber. Seq numbers the batches of one subscription,
// starting at 1: the receiver detects a broken connection (messages lost to
// a partition) as a sequence gap — the equivalent of a TCP connection
// reset — and re-subscribes so the upstream replays what was lost.
//
// The sender either gives Tuples away or lends it for the duration of Send
// (fabric.Fabric; docs/ARCHITECTURE.md, "Who owns a tuple array"). A fabric
// delivers a given array itself; it copies a lent one, with CopyTuples.
type DataMsg struct {
	seal   givenSeal // first: a zero-size last field would be padded
	Stream string
	Seq    uint64
	Tuples []tuple.Tuple
	// Given promises that nobody writes Tuples again: the sender gave the
	// array away and every receiver of it only reads it. A fabric delivers
	// a given array itself, with Pool nil.
	Given bool
	// Pool, when set, lent Tuples to this message: the receiving node
	// returns the array to it once nothing reads it any more. Senders
	// leave it nil; a fabric sets it on the copies it lends to endpoints
	// registered through fabric.Lender. The codec does not carry
	// it, nor Given.
	Pool *tuple.LoanPool
}

// CopyTuples returns the message a fabric delivers in m's place, or nil when
// it delivers m itself: a given array goes on as it is, and a lent one is
// copied, into an array lent from pool when pool is not nil and otherwise
// into one the receiver owns, which the copy then gives. Long payloads are
// shared, not copied: they are immutable once published. An empty batch
// carries no array. Fabrics that cannot import this package call the
// method through an interface.
func (m DataMsg) CopyTuples(pool *tuple.LoanPool) any {
	switch {
	case len(m.Tuples) == 0:
		m.Tuples, m.Given, m.Pool = nil, false, nil
	case m.Given:
		return sealGiven(m)
	default:
		m.Tuples = append(pool.Lend(len(m.Tuples)), m.Tuples...)
		m.Given, m.Pool = pool == nil, pool
	}
	return m
}

// SubscribeMsg asks an upstream endpoint to start (or resume) sending a
// stream. FromID names the last stable tuple the subscriber holds; the
// upstream replays everything after it. If SeenTentative is set, the
// subscriber received tentative tuples after that stable tuple and the
// upstream must precede the replay with an UNDO (Fig. 8).
type SubscribeMsg struct {
	Stream        string
	FromID        uint64
	SeenTentative bool
	// TailOnly subscribes for fresh data only, with no historical
	// replay: used when attaching to a replica in UP_FAILURE "to
	// continue processing new tentative data" (§4.4.3) — its stale
	// tentative history will be revoked by corrections anyway.
	TailOnly bool
}

// UnsubscribeMsg stops a subscription.
type UnsubscribeMsg struct {
	Stream string
}

// AckMsg tells an upstream endpoint that every tuple of the stream up to
// and including UpToID has been durably received; it drives output-buffer
// truncation (§8.1).
type AckMsg struct {
	Stream string
	UpToID uint64
}

// KeepAliveReq is the periodic reachability and state probe (§4.2.3).
type KeepAliveReq struct{}

// KeepAliveResp reports the responder's node state and the state of each
// of its output streams (per-stream states are the §8.2 refinement; in
// whole-node mode every stream carries the node state).
type KeepAliveResp struct {
	Node    StreamState
	Streams map[string]StreamState
	// Progress is the responder's stabilization-progress token: the last
	// stable tuple id it holds on each of its input streams. A replica
	// that granted this responder a reconciliation promise (Fig. 9)
	// polices the grant with it — a granted peer that answers keep-alives
	// but whose token never advances is alive yet making zero
	// stabilization progress (its data path is partitioned, or its replay
	// wedged), and the grant is revoked after a bounded stall window
	// instead of the full GrantTimeout. Nil when the responder has no
	// inputs, and on frames from binaries predating the token (the codec
	// accepts bodies without it).
	Progress map[string]uint64
}

// ReconcileReq asks a replica of the same node for permission to enter
// STABILIZATION (the stagger protocol of Fig. 9).
type ReconcileReq struct{}

// ReconcileResp grants or rejects a ReconcileReq.
type ReconcileResp struct {
	Granted bool
}

// ReconcileDone tells the granting replica that the requester has finished
// stabilizing, releasing the granter's promise not to reconcile.
type ReconcileDone struct{}
