package scenario

import (
	"fmt"
	"slices"
	"testing"

	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/tuple"
)

// TestKeepingHandlersSeeUnchangedArrays is the hazard the fabric's
// tuple-array contract rests on. A handler registered with a plain Register
// may keep every array it gets, as a recorder that interposes on each node
// and the client does: netsim must then give it arrays nobody writes again
// and lend it none, even though the node behind it returns the loans it
// would otherwise get. Every node's and the client's handler is
// re-registered that way on a replicated chain with a source disconnect and
// a replica crash (replays, undos, redo-sized instants); at the end every
// kept DataMsg must still equal the copy taken at its delivery. The second
// run caps the sources' logs at 2 000 tuples: eviction recycles log
// segments from about 6.5 s on, during the disconnect, whose missed suffix
// (about 1 550 tuples) the cap still holds.
func TestKeepingHandlersSeeUnchangedArrays(t *testing.T) {
	for _, logCap := range []int{0, 2000} {
		t.Run(fmt.Sprintf("log_cap=%d", logCap), func(t *testing.T) { checkKeepers(t, logCap) })
	}
}

func checkKeepers(t *testing.T, logCap int) {
	spec, err := Parse([]byte(fmt.Sprintf(`{
  "name": "keepers",
  "seed": 3,
  "duration_s": 20,
  "defaults": {"delay_s": 2, "replicas": 2},
  "sources": [{"name": "s", "count": 2, "rate": 300, "log_cap": %d, "workload": {"kind": "constant"}}],
  "nodes": [
    {"name": "n1", "inputs": ["s"]},
    {"name": "n2", "inputs": ["n1"]},
    {"name": "n3", "inputs": ["n2"]}
  ],
  "client": {"input": "n3", "delay_ms": 50},
  "faults": [
    {"kind": "disconnect", "source": "s1", "at_s": 4, "duration_s": 5},
    {"kind": "crash", "node": "n2", "replica": 1, "at_s": 6, "duration_s": 2}
  ]
}`, logCap)))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Build(spec, Options{NoAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	type kept struct {
		to   string
		msg  node.DataMsg
		copy []tuple.Tuple
	}
	var all []kept
	keeper := func(id string, h fabric.Handler) fabric.Handler {
		return func(from string, msg any) {
			if m, ok := msg.(node.DataMsg); ok {
				all = append(all, kept{id, m, slices.Clone(m.Tuples)})
			}
			h(from, msg)
		}
	}
	for _, row := range dep.Nodes {
		for _, n := range row {
			dep.Fab.Register(n.ID(), keeper(n.ID(), n.HandleMessage))
		}
	}
	dep.Fab.Register("client", keeper("client", dep.Client.Proxy().HandleMessage))
	dep.Start()
	dep.RunFor(int64(spec.DurationS * 1e6))

	tuples, replays := 0, 0
	for i, k := range all {
		if k.msg.Pool != nil {
			t.Fatalf("message %d to %s (seq %d) was lent from a pool to a keeping handler", i, k.to, k.msg.Seq)
		}
		if len(k.msg.Tuples) != len(k.copy) {
			t.Fatalf("message %d to %s (seq %d) changed length", i, k.to, k.msg.Seq)
		}
		for j := range k.copy {
			if !tuple.Equal(k.msg.Tuples[j], k.copy[j]) {
				t.Fatalf("message %d to %s (seq %d): tuple %d is now %v, was %v at delivery", i, k.to, k.msg.Seq, j, k.msg.Tuples[j], k.copy[j])
			}
		}
		tuples += len(k.copy)
		if k.msg.Seq == 1 && len(k.copy) > 0 {
			replays++
		}
	}
	if tuples == 0 || replays == 0 {
		t.Fatalf("kept %d messages holding %d tuples, %d of them replays: the run exercised nothing", len(all), tuples, replays)
	}
	if dropped := dep.Sources[0].DroppedLog; (logCap > 0) != (dropped > 0) {
		t.Fatalf("source log_cap %d dropped %d tuples", logCap, dropped)
	}
	t.Logf("kept %d messages, %d tuples, %d first-of-subscription batches", len(all), tuples, replays)
}
