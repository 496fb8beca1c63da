//go:build loanpoison

package node

import (
	"strings"
	"testing"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// TestWriteIntoSentArrayPanics: a receiver that writes into a delivered
// array writes into the log that adopted it. The poisoning build checks an
// adopted array against its checksum whenever the log drops it, shortens
// it or copies out of it, and panics on the write; without the write
// nothing panics.
func TestWriteIntoSentArrayPanics(t *testing.T) {
	touches := []struct {
		op    string
		touch func(ob *OutputBuffer)
	}{
		{"drop", func(ob *OutputBuffer) { ob.Ack("d1", 4) }},
		{"shorten", func(ob *OutputBuffer) { ob.Ack("d1", 2) }},
		{"shorten", func(ob *OutputBuffer) { ob.Publish(tuple.NewUndo(2)) }},
		{"copy out of", func(ob *OutputBuffer) { ob.Subscribe("d2", SubscribeMsg{Stream: "s"}) }},
	}
	for _, write := range []bool{false, true} {
		for _, tc := range touches {
			sim := runtime.NewVirtual()
			net := netsim.New(sim)
			net.Register("up", func(string, any) {})
			net.Register("d2", func(string, any) {})
			net.Register("d1", func(_ string, msg any) {
				if write {
					msg.(DataMsg).Tuples[1].STime = -1
				}
			})
			ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, []string{"d1"})
			ob.Subscribe("d1", SubscribeMsg{Stream: "s", TailOnly: true})
			ob.PublishBatch([]tuple.Tuple{ins(1, 1), ins(2, 2), ins(3, 3), ins(4, 4)})
			sim.Run()
			if len(ob.runs) != 1 || ob.runs[0].seg != nil {
				t.Fatalf("the log did not adopt the flushed array: %d runs", len(ob.runs))
			}
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg, _ = r.(string)
					}
				}()
				tc.touch(ob)
				return ""
			}()
			switch {
			case !write && msg != "":
				t.Errorf("%s with no write panicked: %s", tc.op, msg)
			case write && !strings.Contains(msg, tc.op+" an adopted array"):
				t.Errorf("%s after a receiver wrote the array: panic %q, want one naming the write", tc.op, msg)
			}
		}
	}
}
