package node

import (
	"testing"

	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

const (
	ms  = runtime.Millisecond
	sec = runtime.Second
)

type imHarness struct {
	sim       *runtime.VirtualClock
	seqs      map[string]uint64
	im        *InputManager
	failures  []FailKind
	heals     int
	forwarded []tuple.Tuple
}

func newIMHarness(stallTimeout int64) *imHarness {
	h := &imHarness{sim: runtime.NewVirtual()}
	h.im = newInputManager(h.sim, "s", stallTimeout, inputHooks{
		onFailed: func(_ string, k FailKind) { h.failures = append(h.failures, k) },
		onHealed: func(string) { h.heals++ },
		forward:  func(_ string, ts []tuple.Tuple) { h.forwarded = append(h.forwarded, ts...) },
	}, nil)
	h.im.SetConnections("up", "", true)
	return h
}

// handle delivers a batch with the next sequence number per connection,
// mimicking an unbroken subscription.
func (h *imHarness) handle(from string, ts []tuple.Tuple) {
	if h.seqs == nil {
		h.seqs = map[string]uint64{}
	}
	h.seqs[from]++
	h.im.Handle(from, h.seqs[from], ts)
}

func TestIMForwardsLiveData(t *testing.T) {
	h := newIMHarness(0)
	h.handle("up", []tuple.Tuple{ins(1, 10), tuple.NewBoundary(100)})
	if len(h.forwarded) != 2 {
		t.Fatalf("forwarded %v", h.forwarded)
	}
	if h.im.LastStableID() != 1 {
		t.Fatalf("LastStableID = %d", h.im.LastStableID())
	}
}

func TestIMIgnoresStaleConnections(t *testing.T) {
	h := newIMHarness(0)
	h.handle("ghost", []tuple.Tuple{ins(1, 10)})
	if len(h.forwarded) != 0 {
		t.Fatal("stale connection data must be dropped")
	}
}

func TestIMTentativeDeclaresFailureBeforeForwarding(t *testing.T) {
	h := newIMHarness(0)
	failedAtForward := -1
	h.im.hooks.forward = func(_ string, ts []tuple.Tuple) {
		if h.im.Failed() && failedAtForward == -1 {
			failedAtForward = len(ts)
		}
		h.forwarded = append(h.forwarded, ts...)
	}
	h.handle("up", []tuple.Tuple{ins(1, 10), tent(2, 20)})
	if len(h.failures) != 1 || h.failures[0] != FailTentative {
		t.Fatalf("failures = %v", h.failures)
	}
	if failedAtForward == -1 {
		t.Fatal("failure must be declared before the batch is forwarded")
	}
	if !h.im.SeenTentative() {
		t.Fatal("SeenTentative must be set")
	}
}

func TestIMStallDetection(t *testing.T) {
	h := newIMHarness(200 * ms)
	h.im.StartMonitoring()
	h.handle("up", []tuple.Tuple{tuple.NewBoundary(10)})
	h.sim.RunUntil(150 * ms)
	if len(h.failures) != 0 {
		t.Fatal("stall declared too early")
	}
	h.sim.RunUntil(400 * ms)
	if len(h.failures) != 1 || h.failures[0] != FailStall {
		t.Fatalf("stall not detected: %v", h.failures)
	}
}

func TestIMBoundaryProgressPreventsStall(t *testing.T) {
	h := newIMHarness(200 * ms)
	h.im.StartMonitoring()
	for at := int64(100 * ms); at <= 1*sec; at += 100 * ms {
		at := at
		h.sim.At(at, func() {
			h.handle("up", []tuple.Tuple{tuple.NewBoundary(at)})
		})
	}
	h.sim.RunUntil(1 * sec)
	if len(h.failures) != 0 {
		t.Fatalf("healthy stream declared failed: %v", h.failures)
	}
}

func TestIMStallHealsOnBoundaryResume(t *testing.T) {
	h := newIMHarness(200 * ms)
	h.im.StartMonitoring()
	h.sim.RunUntil(500 * ms) // stall fires
	if !h.im.Failed() {
		t.Fatal("expected stall")
	}
	h.handle("up", []tuple.Tuple{ins(1, 10), tuple.NewBoundary(600 * ms)})
	if h.heals != 1 || h.im.Failed() {
		t.Fatalf("boundary resume must heal: heals=%d failed=%v", h.heals, h.im.Failed())
	}
}

func TestIMLoggingAndUndoPatching(t *testing.T) {
	h := newIMHarness(0)
	h.im.StartLog()
	h.handle("up", []tuple.Tuple{ins(1, 10), ins(2, 20)})
	h.handle("up", []tuple.Tuple{tent(3, 30), tent(4, 40)})
	if h.im.LogLen() != 4 {
		t.Fatalf("LogLen = %d, want 4", h.im.LogLen())
	}
	// Upstream reconciles in place: undo to stable id 2, corrections,
	// rec_done.
	h.handle("up", []tuple.Tuple{tuple.NewUndo(2)})
	if h.im.LogLen() != 2 {
		t.Fatalf("undo must patch the log: LogLen = %d", h.im.LogLen())
	}
	if h.im.Correcting() == "" {
		t.Fatal("undo on an established tentative connection starts correcting mode")
	}
	h.handle("up", []tuple.Tuple{ins(3, 30), ins(4, 40), tuple.NewRecDone(0)})
	log := takeFlat(h.im)
	if len(log) != 4 {
		t.Fatalf("patched log = %v", log)
	}
	for _, tp := range log {
		if tp.Type != tuple.Insertion {
			t.Fatalf("patched log must be stable: %v", log)
		}
	}
	if h.heals != 1 {
		t.Fatalf("rec_done must heal, heals=%d", h.heals)
	}
}

func TestIMCorrectingModeStopsLiveForwarding(t *testing.T) {
	h := newIMHarness(0)
	h.im.StartLog()
	h.handle("up", []tuple.Tuple{tent(1, 10)})
	n := len(h.forwarded)
	h.handle("up", []tuple.Tuple{tuple.NewUndo(0)})
	h.handle("up", []tuple.Tuple{ins(1, 10)})
	if len(h.forwarded) != n {
		t.Fatal("corrections must not be forwarded live")
	}
	h.handle("up", []tuple.Tuple{tuple.NewRecDone(0)})
	h.handle("up", []tuple.Tuple{ins(2, 20)})
	if len(h.forwarded) != n+1 {
		t.Fatal("post-rec_done data must flow live again")
	}
}

func TestIMSeamlessSubscribeReplayDoesNotEnterCorrecting(t *testing.T) {
	h := newIMHarness(0)
	h.im.StartLog()
	h.handle("up", []tuple.Tuple{tent(1, 10)})
	// Switch to a STABLE replica: its replay starts with an undo.
	h.im.SetConnections("up2", "", true)
	h.handle("up2", []tuple.Tuple{tuple.NewUndo(0), ins(1, 10), ins(2, 20)})
	if h.im.Correcting() != "" {
		t.Fatal("seamless replay must not enter correcting mode")
	}
	// The log was patched: tentative gone, stable corrections in.
	log := takeFlat(h.im)
	if len(log) != 2 || log[0].Type != tuple.Insertion {
		t.Fatalf("log = %v", log)
	}
}

func TestIMDualConnectionRouting(t *testing.T) {
	h := newIMHarness(0)
	h.im.StartLog()
	h.handle("up", []tuple.Tuple{tent(1, 10)}) // failure
	// Upstream "up" enters STABILIZATION; CM attaches "fresh" (a replica
	// in UP_FAILURE) as live and keeps "up" for corrections.
	h.im.SetConnections("fresh", "up", false)
	h.handle("fresh", []tuple.Tuple{tent(5, 50)}) // fresh tentative flows live
	if len(h.forwarded) != 2 {
		t.Fatalf("fresh data must flow live: %v", h.forwarded)
	}
	h.handle("up", []tuple.Tuple{tuple.NewUndo(0), ins(1, 10)}) // corrections patch log only
	if len(h.forwarded) != 2 {
		t.Fatal("corrections must not flow live")
	}
	// REC_DONE promotes the corrected stream to live.
	h.handle("up", []tuple.Tuple{tuple.NewRecDone(0)})
	if h.im.Live() != "up" || h.im.Correcting() != "" {
		t.Fatalf("rec_done must promote corr to live: live=%q corr=%q", h.im.Live(), h.im.Correcting())
	}
	if h.heals != 1 {
		t.Fatalf("heals = %d", h.heals)
	}
	// The old fresh feed is now stale.
	h.handle("fresh", []tuple.Tuple{tent(6, 60)})
	if len(h.forwarded) != 2 {
		t.Fatal("stale fresh feed must be dropped")
	}
	// Tentative entries were stripped from the log (the stable stream
	// covers them via the ongoing subscription).
	for _, tp := range takeFlat(h.im) {
		if tp.Type == tuple.Tentative {
			t.Fatalf("tentative left in log: %v", tp)
		}
	}
}

func TestIMStartLogResets(t *testing.T) {
	h := newIMHarness(0)
	h.im.StartLog()
	h.handle("up", []tuple.Tuple{ins(1, 10)})
	h.im.StartLog()
	if h.im.LogLen() != 0 {
		t.Fatal("StartLog must reset the log")
	}
	h.im.StopLog()
	h.handle("up", []tuple.Tuple{ins(2, 20)})
	if h.im.LogLen() != 0 {
		t.Fatal("StopLog must stop logging")
	}
}

func TestIMScanStopsAtFirstUndo(t *testing.T) {
	// Tuples after the first undo do not affect the batch classification:
	// a tentative tuple that only appears after the undo must not declare
	// a fresh FailTentative (the undo starts a correction sequence, which
	// is a recovery in progress, not a new failure).
	h := newIMHarness(0)
	h.handle("up", []tuple.Tuple{ins(1, 10)})
	// First undo on a fresh subscription is the seamless replay patch.
	h.handle("up", []tuple.Tuple{tuple.NewUndo(1), tent(2, 20)})
	if len(h.failures) != 0 {
		t.Fatalf("tentative after an undo must not declare failure: %v", h.failures)
	}
	// Out of the seamless grace, a second undo starts a real correction
	// sequence — and the tentative behind it still declares nothing.
	h.handle("up", []tuple.Tuple{tuple.NewUndo(1), tent(3, 30)})
	if len(h.failures) != 0 {
		t.Fatalf("tentative after an undo must not declare failure: %v", h.failures)
	}
	if !h.im.correcting {
		t.Fatal("undo must flip the connection into correcting mode")
	}
}

func TestIMDedupOnlyAppliesToReplayPrefix(t *testing.T) {
	// A seq-1 replay drops stable ids at or below the watermark — but only
	// before the first correction tuple. A replayed correction sequence
	// re-sends stable tuples with recycled ids that are NOT duplicates.
	h := newIMHarness(0)
	h.handle("up", []tuple.Tuple{ins(1, 10), ins(2, 20)})

	// Fresh subscription (seq 1 on a new endpoint) replaying an overlap.
	h.im.SetConnections("up2", "", true)
	h.handle("up2", []tuple.Tuple{ins(2, 20), ins(3, 30)})
	if h.im.DroppedDup != 1 {
		t.Fatalf("overlapping replay tuple not deduped: %d", h.im.DroppedDup)
	}
	if h.im.LastStableID() != 3 {
		t.Fatalf("LastStableID = %d", h.im.LastStableID())
	}

	// Same watermark, but the batch opens with an undo: ids at or below
	// the watermark after it are corrections, not duplicates.
	h.handle("up2", []tuple.Tuple{tuple.NewUndo(1), ins(2, 21), ins(3, 31), tuple.NewRecDone(40)})
	if h.im.DroppedDup != 1 {
		t.Fatalf("correction tuples wrongly deduped: %d", h.im.DroppedDup)
	}
	if h.im.LastStableID() != 3 {
		t.Fatalf("LastStableID after correction = %d", h.im.LastStableID())
	}
}

// takeFlat takes an InputManager's log and joins its runs into one slice.
func takeFlat(im *InputManager) []tuple.Tuple {
	var out []tuple.Tuple
	for _, ts := range im.TakeLog() {
		out = append(out, ts...)
	}
	return out
}
