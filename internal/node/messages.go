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
type DataMsg struct {
	Stream string
	Seq    uint64
	Tuples []tuple.Tuple
	// Pool, when set, lent Tuples to this message: the receiving node
	// returns the array to it once nothing reads it any more. Senders
	// leave it nil. The TCP fabric delivers every non-empty DataMsg, local
	// or remote, in an array lent from its pool (decoded, or copied from
	// the sender's) and sets it; netsim delivers the sender's array and
	// leaves it nil. The codec does not carry it.
	Pool *tuple.LoanPool
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
