package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestTraceDeterministic: the per-replica protocol event trace — the
// triage tool behind the fuzzer's three fixed findings — must fire for
// a faulted run, carry the protocol's landmark events in virtual-time
// order, and be byte-identical across runs.
func TestTraceDeterministic(t *testing.T) {
	spec, err := Load("../../scenarios/corpus/resubscribe-replay-dup.json")
	if err != nil {
		t.Fatal(err)
	}
	record := func() string {
		var b strings.Builder
		lastUS := int64(-1)
		opts := Options{Trace: func(atUS int64, replica, event, detail string) {
			if atUS < lastUS {
				t.Fatalf("trace went backwards: %d after %d", atUS, lastUS)
			}
			lastUS = atUS
			fmt.Fprintf(&b, "%d %s %s %s\n", atUS, replica, event, detail)
		}}
		if _, err := Run(spec, opts); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := record()
	if first == "" {
		t.Fatal("faulted run produced no trace events")
	}
	for _, event := range []string{"state", "batch"} {
		if !strings.Contains(first, " "+event+" ") {
			t.Fatalf("trace is missing %q events:\n%.600s", event, first)
		}
	}
	if second := record(); second != first {
		t.Fatal("trace is not deterministic across runs")
	}
}

// TestCrashedReplicaStaysSilent: a crashed replica's failure detector
// stops with it. In the corpus spec replica n1b crashes at 11.3 s and
// restarts 1 s later; in between, the trace holds no input failure, state
// change or checkpoint from it (its stall timers used to declare both
// inputs failed and snapshot the dead diagram 105 ms after the crash).
func TestCrashedReplicaStaysSilent(t *testing.T) {
	spec, err := Load("../../scenarios/corpus/restart-keeps-dead-policy.json")
	if err != nil {
		t.Fatal(err)
	}
	down, crashes, restarts := false, 0, 0
	opts := Options{Trace: func(atUS int64, replica, event, detail string) {
		if replica != "n1b" {
			return
		}
		switch event {
		case "crash":
			down = true
			crashes++
		case "restart":
			down = false
			restarts++
		case "input-failed", "input-healed", "state", "checkpoint", "discard-epoch":
			if down {
				t.Errorf("%d µs: crashed n1b traced %s %s", atUS, event, detail)
			}
		}
	}}
	if _, err := Run(spec, opts); err != nil {
		t.Fatal(err)
	}
	if crashes != 1 || restarts != 1 {
		t.Fatalf("n1b crashed %d and restarted %d times, want once each", crashes, restarts)
	}
}
