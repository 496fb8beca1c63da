//go:build loanpoison

package node

import (
	"strings"
	"testing"

	"borealis/internal/tuple"
)

// TestWriteIntoGivenArrayPanics: a given array is shared by every receiver
// of it, so nobody may write it once it is sent. The poisoning build
// checksums it when netsim's Send passes it on and the receiving node
// verifies the checksum at delivery: a sender that writes it after Send, or
// a receiver delivered earlier that writes into it, makes the node panic.
// Without a write nothing panics.
func TestWriteIntoGivenArrayPanics(t *testing.T) {
	for _, writer := range []string{"", "sender", "receiver"} {
		h := newLoanHarness(t)
		ts := []tuple.Tuple{ins(1, 1), ins(2, 2), ins(3, 3)}
		h.net.Register("k", func(_ string, msg any) {
			if writer == "receiver" {
				msg.(DataMsg).Tuples[1].STime = -1
			}
		})
		for _, to := range []string{"k", "a"} {
			h.net.Send("up", to, DataMsg{Stream: "in", Seq: 1, Tuples: ts, Given: true})
		}
		if writer == "sender" {
			ts[2].ID = 99
		}
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			h.sim.Run()
			return ""
		}()
		switch {
		case writer == "" && msg != "":
			t.Errorf("no write: delivery panicked: %s", msg)
		case writer != "" && !strings.Contains(msg, "given array of 3 tuples was written after it was sent"):
			t.Errorf("%s wrote the array: panic %q, want one naming the write", writer, msg)
		}
	}
}
