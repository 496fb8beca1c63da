// Package operator implements the Borealis operator set extended for DPC
// (§3, §4 of the paper): Filter, Map, Aggregate, SJoin, and Union, plus the
// two new operators DPC introduces — SUnion, the data-serializing operator
// that orders tuples deterministically and implements the availability/
// consistency trade-off, and SOutput, which stabilizes output streams during
// reconciliation.
//
// All operators are deterministic (§2.1): their output depends only on the
// sequence of input tuples, never on arrival times. The timing-dependent
// behaviour DPC needs (delaying, suspending) is confined to SUnion, whose
// serialization decisions are exactly what checkpoint/redo rolls back.
//
// Every operator is checkpointable: Checkpoint returns a deep snapshot of
// the operator's state and Restore reinstates it, which is the mechanism
// behind the paper's checkpoint/redo reconciliation (§4.4.1).
package operator

import (
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// SignalKind identifies control signals sent by SUnion and SOutput to the
// node's Consistency Manager (the paper's control streams, Table I).
type SignalKind uint8

const (
	// SigUpFailure is sent by an SUnion entering an inconsistent state.
	SigUpFailure SignalKind = iota
	// SigRecRequest is sent by an SUnion once its input was corrected and
	// the node may reconcile its state.
	SigRecRequest
	// SigRecDone is sent by SOutput when the end-of-reconciliation marker
	// crosses the output.
	SigRecDone
)

func (k SignalKind) String() string {
	switch k {
	case SigUpFailure:
		return "UP_FAILURE"
	case SigRecRequest:
		return "REC_REQUEST"
	case SigRecDone:
		return "REC_DONE"
	}
	return "UNKNOWN"
}

// Signal is a control message from an operator to the Consistency Manager.
type Signal struct {
	Kind SignalKind
	Op   string // operator name
	Port int    // input port, where meaningful
}

// Env is the execution environment the engine hands each operator when the
// query diagram is wired. Emit routes output tuples to the operator's
// downstream consumers; Now/After give access to the runtime clock —
// virtual or wall, the operator cannot tell (used only by SUnion's delay
// machinery); Signal reaches the Consistency Manager; Diverged reports
// whether the node's state has diverged from the stable execution, in
// which case SOutput labels everything tentative.
type Env struct {
	Emit func(tuple.Tuple)
	// EmitBatch is never called: every ProcessBatch emits through
	// EmitLoan.
	//
	// Deprecated: kept only so environments that still set it compile.
	EmitBatch func([]tuple.Tuple)
	// EmitLoan, when non-nil, sends a whole batch downstream in one call
	// with the same semantics as emitting each tuple in order, with the
	// backing array loaned out: the engine's staged batch plane provides
	// it so ProcessBatch implementations skip the per-tuple emission
	// chain. The receiver may alias ts as its staging frame instead of
	// copying, reporting true when it did. After a taken loan the caller
	// must not write to the array (directly or by reslice-and-append)
	// until its next Process/ProcessBatch call begins — a reused scratch
	// buffer qualifies unconditionally; a pooled buffer that may be
	// refilled within the same call must be parked until that next call
	// (see SUnion's deferred bucket free).
	EmitLoan func([]tuple.Tuple) bool
	Now      func() int64
	After    func(d int64, fn func()) runtime.Timer
	Signal   func(Signal)
	Diverged func() bool
}

// emit is a nil-safe send.
func (e *Env) emit(t tuple.Tuple) {
	if e != nil && e.Emit != nil {
		e.Emit(t)
	}
}

// Operator is a node in a query diagram. Process consumes one tuple on one
// input port and emits any outputs through the attached Env. Operators are
// single-threaded: the engine serializes all Process calls.
type Operator interface {
	// Name identifies the operator within its diagram.
	Name() string
	// Inputs returns the number of input ports.
	Inputs() int
	// Attach hands the operator its environment. It is called once,
	// before any Process call, and again after a crash-restart.
	Attach(env *Env)
	// Process consumes one input tuple.
	Process(port int, t tuple.Tuple)
	// Checkpoint returns a deep snapshot of operator state.
	Checkpoint() any
	// Restore reinstates a snapshot produced by Checkpoint.
	Restore(snapshot any)
}

// Base provides the common parts of every operator implementation.
type Base struct {
	name string
	env  *Env
}

// NewBase names an operator.
func NewBase(name string) Base { return Base{name: name} }

// Name returns the operator's name.
func (b *Base) Name() string { return b.name }

// Attach stores the environment.
func (b *Base) Attach(env *Env) { b.env = env }

// Env returns the attached environment (may be nil in unit tests).
func (b *Base) Env() *Env { return b.env }

// Emit sends a tuple downstream.
func (b *Base) Emit(t tuple.Tuple) { b.env.emit(t) }

// EmitLoan sends a batch downstream, loaning out the backing array (see
// Env.EmitLoan for the aliasing contract); it reports whether the loan was
// taken. Falls back to per-tuple emission (no loan) when the environment
// offers no loan path.
func (b *Base) EmitLoan(ts []tuple.Tuple) bool {
	if b.env != nil && b.env.EmitLoan != nil {
		return b.env.EmitLoan(ts)
	}
	for i := range ts {
		b.env.emit(ts[i])
	}
	return false
}

// Now returns the current virtual time, or 0 when detached.
func (b *Base) Now() int64 {
	if b.env != nil && b.env.Now != nil {
		return b.env.Now()
	}
	return 0
}
