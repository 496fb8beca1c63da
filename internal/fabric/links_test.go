package fabric

import "testing"

// TestLinksJitterDeterminism: a link's jitter stream is a pure function of
// its endpoint names — two tables draw the same sequence for the same
// link, distinct links (including the reverse direction) draw different
// ones, every draw lies in [DelayUS, DelayUS+JitterUS), and clearing and
// re-installing the jitter continues the stream instead of reseeding it.
func TestLinksJitterDeterminism(t *testing.T) {
	st := LinkState{DelayUS: 7, JitterUS: 1000}
	var l1, l2 Links
	l1.Set("a", "b", st)
	l2.Set("a", "b", st)
	l2.Set("b", "a", st)
	var draws []int64
	diff := false
	for i := 0; i < 64; i++ {
		d1, j1 := l1.Delay("a", "b")
		d2, _ := l2.Delay("a", "b")
		rev, _ := l2.Delay("b", "a")
		if !j1 {
			t.Fatal("jittered link reported an unjittered draw")
		}
		if d1 != d2 {
			t.Fatalf("draw %d: same link drew %d and %d on two tables", i, d1, d2)
		}
		if d1 < st.DelayUS || d1 >= st.DelayUS+st.JitterUS {
			t.Fatalf("draw %d = %d outside [%d, %d)", i, d1, st.DelayUS, st.DelayUS+st.JitterUS)
		}
		if d1 != rev {
			diff = true
		}
		draws = append(draws, d1)
	}
	if !diff {
		t.Fatal("a link and its reverse share a jitter stream")
	}

	var l3 Links
	l3.Set("a", "b", st)
	for i := 0; i < 32; i++ {
		l3.Delay("a", "b")
	}
	l3.Set("a", "b", LinkState{})
	if d, j := l3.Delay("a", "b"); d != 0 || j {
		t.Fatalf("cleared link drew (%d, %v), want (0, false)", d, j)
	}
	l3.Set("a", "b", st)
	for i := 32; i < 64; i++ {
		if d, _ := l3.Delay("a", "b"); d != draws[i] {
			t.Fatalf("draw %d after re-install = %d, want the stream to continue with %d", i, d, draws[i])
		}
	}
}

// TestLinksCountedBlocks: blocks are counted per directed link, through
// Block/Unblock and through Set alike, and never go negative.
func TestLinksCountedBlocks(t *testing.T) {
	var l Links
	if l.Blocked("a", "b") {
		t.Fatal("zero table blocks a link")
	}
	l.Unblock("a", "b") // nothing to release: must not arm a later Block to be a no-op
	l.Block("a", "b")
	l.Set("a", "b", LinkState{Block: true, DelayUS: 5})
	if l.Blocked("b", "a") {
		t.Fatal("block leaked into the reverse direction")
	}
	l.Unblock("a", "b")
	if !l.Blocked("a", "b") {
		t.Fatal("block, block, unblock reopened the link")
	}
	if d, _ := l.Delay("a", "b"); d != 5 {
		t.Fatalf("Unblock disturbed the delay: %d, want 5", d)
	}
	l.Set("a", "b", LinkState{})
	if l.Blocked("a", "b") {
		t.Fatal("link still blocked after both blocks were released")
	}
	if d, _ := l.Delay("a", "b"); d != 0 {
		t.Fatalf("zero LinkState left a delay of %d", d)
	}
}
