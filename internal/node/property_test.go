package node

import (
	"testing"
	"testing/quick"

	"borealis/internal/netsim"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Property: the connection-sequence admission control accepts exactly the
// gap-free prefix of each subscription epoch, and any gap triggers exactly
// one broken-connection notification until a fresh subscription arrives.
func TestQuickConnSeqAdmission(t *testing.T) {
	f := func(seqs []uint8) bool {
		sim := runtime.NewVirtual()
		broken := 0
		im := newInputManager(sim, "s", 0, inputHooks{
			onBroken: func(string, string) { broken++ },
		}, nil)
		im.SetConnections("up", "", true)
		next := uint64(1)
		established := false
		inEpoch := false
		wantBroken := 0
		for _, raw := range seqs {
			seq := uint64(raw%8) + 1 // small space to exercise collisions
			accepted := im.admit("up", seq)
			switch {
			case seq == 1:
				if !accepted {
					return false // fresh subscription always accepted
				}
				next = 2
				established = true
				inEpoch = true
			case !established:
				// Pre-subscription leftovers: dropped silently,
				// no broken-connection notification.
				if accepted {
					return false
				}
			case !inEpoch:
				if accepted {
					return false // broken epoch must drop everything
				}
			case seq == next:
				if !accepted {
					return false
				}
				next++
			default:
				if accepted {
					return false // gap must not be accepted
				}
				inEpoch = false
				wantBroken++
			}
		}
		return broken == wantBroken
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any mix of publishes and undos, an OutputBuffer replay
// from id 0 equals its live feed as observed by a subscriber connected from
// the start (with its own undo-compaction applied) — the Fig. 8 guarantee
// that late subscribers see the corrected stream.
func TestQuickOutputBufferReplayEqualsCompactedLive(t *testing.T) {
	f := func(ops []uint8) bool {
		sim := runtime.NewVirtual()
		net := netsim.New(sim)
		var live []tuple.Tuple
		net.Register("live", func(_ string, msg any) {
			live = append(live, msg.(DataMsg).Tuples...)
		})
		var late []tuple.Tuple
		net.Register("late", func(_ string, msg any) {
			late = append(late, msg.(DataMsg).Tuples...)
		})
		net.Register("up", func(string, any) {})
		ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, nil)
		ob.Subscribe("live", SubscribeMsg{Stream: "s"})
		id := uint64(0)
		lastStable := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				id++
				lastStable = id
				publishOne(ob, tuple.Tuple{Type: tuple.Insertion, ID: id, STime: int64(id)}.WithData(int64(id)))
			case 2:
				id++
				publishOne(ob, tuple.Tuple{Type: tuple.Tentative, ID: id, STime: int64(id)}.WithData(int64(id)))
			case 3:
				publishOne(ob, tuple.NewUndo(lastStable))
			}
		}
		sim.Run()
		ob.Subscribe("late", SubscribeMsg{Stream: "s"})
		sim.Run()
		// Compact the live view by applying undos as they arrived.
		var compacted []tuple.Tuple
		for _, tp := range live {
			if tp.Type == tuple.Undo {
				compacted = tuple.ApplyUndo(compacted, tp.ID)
			} else if tp.IsData() {
				compacted = append(compacted, tp)
			}
		}
		var lateData []tuple.Tuple
		for _, tp := range late {
			if tp.IsData() {
				lateData = append(lateData, tp)
			}
		}
		if len(compacted) != len(lateData) {
			return false
		}
		for i := range compacted {
			if !tuple.Equal(compacted[i], lateData[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: buffer truncation by acks never removes a tuple any expected
// subscriber might still request (everything after the minimum ack stays).
func TestQuickAckTruncationSafety(t *testing.T) {
	f := func(acksA, acksB []uint8) bool {
		sim := runtime.NewVirtual()
		net := netsim.New(sim)
		net.Register("up", func(string, any) {})
		net.Register("a", func(string, any) {})
		net.Register("b", func(string, any) {})
		ob := NewOutputBuffer(sim, net, "up", "s", BufferUnbounded, 0, []string{"a", "b"})
		const n = 40
		for i := uint64(1); i <= n; i++ {
			publishOne(ob, tuple.Tuple{Type: tuple.Insertion, ID: i, STime: int64(i)})
		}
		minAck := uint64(0)
		apply := func(from string, acks []uint8) {
			for _, a := range acks {
				ob.Ack(from, uint64(a)%n+1)
			}
		}
		apply("a", acksA)
		apply("b", acksB)
		// Recompute the floor the buffer must respect.
		maxA, maxB := uint64(0), uint64(0)
		for _, a := range acksA {
			if v := uint64(a)%n + 1; v > maxA {
				maxA = v
			}
		}
		for _, a := range acksB {
			if v := uint64(a)%n + 1; v > maxB {
				maxB = v
			}
		}
		minAck = maxA
		if maxB < minAck {
			minAck = maxB
		}
		// Every tuple after minAck must still be replayable.
		got := ob.after(minAck)
		want := int(n - minAck)
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
