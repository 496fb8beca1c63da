package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"borealis/internal/node"
	"borealis/internal/tuple"
)

// allFrames is one representative value per wire message type, exercising
// every field.
func allFrames() []struct {
	from, to string
	msg      any
} {
	return []struct {
		from, to string
		msg      any
	}{
		{"src1", "n1", node.DataMsg{Stream: "s1", Seq: 7, Tuples: []tuple.Tuple{
			tuple.Tuple{Type: tuple.Insertion, ID: 1, STime: 1000, Src: 0}.WithData(42, -7),
			tuple.Tuple{Type: tuple.Tentative, ID: 2, STime: 1010, Src: 3}.WithData(-1),
			{Type: tuple.Boundary, STime: 1100},
			{Type: tuple.Undo, ID: 1},
			{Type: tuple.RecDone, STime: 1200},
		}}},
		{"n1", "src1", node.SubscribeMsg{Stream: "s1", FromID: 12, SeenTentative: true}},
		{"n1", "src1", node.SubscribeMsg{Stream: "s1", TailOnly: true}},
		{"n1", "src1", node.UnsubscribeMsg{Stream: "s1"}},
		{"n1", "src1", node.AckMsg{Stream: "s1", UpToID: 99}},
		{"n1", "n2", node.KeepAliveReq{}},
		{"n2", "n1", node.KeepAliveResp{Node: node.StateUpFailure, Streams: map[string]node.StreamState{
			"s_out": node.StateStabilization, "a_out": node.StateStable}}},
		{"n2", "n1", node.KeepAliveResp{Node: node.StateStabilization, Streams: map[string]node.StreamState{
			"s_out": node.StateStabilization},
			Progress: map[string]uint64{"s1": 1172, "s2": 0}}},
		{"n2", "n2b", node.ReconcileReq{}},
		{"n2b", "n2", node.ReconcileResp{Granted: true}},
		{"n2b", "n2", node.ReconcileResp{}},
		{"n2", "n2b", node.ReconcileDone{}},
		{"", "", flowAck{Credits: 3}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, f := range allFrames() {
		enc, err := AppendFrame(nil, f.from, f.to, f.msg)
		if err != nil {
			t.Fatalf("encode %T: %v", f.msg, err)
		}
		if n := binary.BigEndian.Uint32(enc); int(n) != len(enc)-4 {
			t.Fatalf("%T: length prefix %d, body %d", f.msg, n, len(enc)-4)
		}
		from, to, msg, err := DecodeFrame(enc[4:])
		if err != nil {
			t.Fatalf("decode %T: %v", f.msg, err)
		}
		if from != f.from || to != f.to {
			t.Fatalf("%T: addr (%q,%q), want (%q,%q)", f.msg, from, to, f.from, f.to)
		}
		if !reflect.DeepEqual(msg, f.msg) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", f.msg, msg, f.msg)
		}
	}
}

func TestCodecAppendsInPlace(t *testing.T) {
	var buf []byte
	var offs []int
	for _, f := range allFrames() {
		offs = append(offs, len(buf))
		var err error
		buf, err = AppendFrame(buf, f.from, f.to, f.msg)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range allFrames() {
		n := binary.BigEndian.Uint32(buf[offs[i]:])
		body := buf[offs[i]+4 : offs[i]+4+int(n)]
		_, _, msg, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(msg, f.msg) {
			t.Fatalf("frame %d: got %#v want %#v", i, msg, f.msg)
		}
	}
}

// TestDecodeFrameDoesNotAliasBody decodes two DataMsg frames through one
// reused body buffer — as a connection's reader does — then overwrites the
// buffer: both decoded messages, payloads and strings included, must be
// unchanged. A decode that aliased the body would see the overwrite.
func TestDecodeFrameDoesNotAliasBody(t *testing.T) {
	mk := func(base int64) node.DataMsg {
		ts := make([]tuple.Tuple, 64)
		for i := range ts {
			v := base + int64(i)
			ts[i] = tuple.Tuple{Type: tuple.Insertion, ID: uint64(v), STime: v * 10}.WithData(v, -v)
		}
		return node.DataMsg{Stream: "stream", Seq: uint64(base), Tuples: ts}
	}
	var body []byte
	decode := func(m node.DataMsg) node.DataMsg {
		enc, err := AppendFrame(nil, "from", "to", m)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body[:0], enc[4:]...)
		from, to, got, err := DecodeFrame(body)
		if err != nil || from != "from" || to != "to" {
			t.Fatalf("decode: (%q, %q) %v", from, to, err)
		}
		return got.(node.DataMsg)
	}
	m1, m2 := mk(1), mk(1000)
	got1 := decode(m1)
	got2 := decode(m2)
	for i := range body {
		body[i] = 0xff
	}
	if !reflect.DeepEqual(got1, m1) {
		t.Fatalf("first message changed after the body buffer was reused:\n got %v\nwant %v", got1, m1)
	}
	if !reflect.DeepEqual(got2, m2) {
		t.Fatalf("second message changed after the body buffer was overwritten:\n got %v\nwant %v", got2, m2)
	}
}

// TestDecodeFrameAllocatesPerFrame pins that decoding a DataMsg costs a
// fixed handful of allocations — addressing strings, the tuple array, one
// payload slab, the boxed message — however many tuples it carries.
func TestDecodeFrameAllocatesPerFrame(t *testing.T) {
	ts := make([]tuple.Tuple, 256)
	for i := range ts {
		ts[i] = tuple.Tuple{Type: tuple.Insertion, ID: uint64(i), STime: int64(i)}.WithData(int64(i), 7, -3)
	}
	enc, err := AppendFrame(nil, "from", "to", node.DataMsg{Stream: "s", Seq: 1, Tuples: ts})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := DecodeFrame(enc[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("decoding a %d-tuple frame allocated %.0f times, want at most 8", len(ts), allocs)
	}
}

// longPayloadFrame returns tuples with payloads of 0 to 5 values, so a
// frame of them mixes inline payloads with ones carved from the frame's
// chunk.
func longPayloadFrame() []tuple.Tuple {
	ts := make([]tuple.Tuple, 12)
	for i := range ts {
		vals := make([]int64, i%6)
		for k := range vals {
			vals[k] = int64(i*10+k) - 30
		}
		ts[i] = tuple.Tuple{Type: tuple.Type(i % 2), ID: uint64(i), STime: int64(i)}.WithData(vals...)
	}
	return ts
}

// TestDecodeLongPayloads round-trips payloads on both sides of the inline
// limit: every decoded tuple equals its original, a payload of up to two
// values decodes in canonical form, and a longer one, which shares the
// frame's chunk, is canonical once cloned.
func TestDecodeLongPayloads(t *testing.T) {
	ts := longPayloadFrame()
	enc, err := AppendFrame(nil, "j1", "n2", node.DataMsg{Stream: "joined", Tuples: ts})
	if err != nil {
		t.Fatal(err)
	}
	_, _, msg, err := DecodeFrame(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(node.DataMsg).Tuples
	if len(got) != len(ts) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !tuple.Equal(got[i], ts[i]) {
			t.Fatalf("tuple %d decoded as %v, want %v", i, got[i], ts[i])
		}
		if ts[i].Len() <= 2 && !reflect.DeepEqual(got[i], ts[i]) {
			t.Fatalf("inline tuple %d decoded as %#v, want %#v", i, got[i], ts[i])
		}
		if !reflect.DeepEqual(got[i].Clone(), ts[i]) {
			t.Fatalf("clone of tuple %d is %#v, want %#v", i, got[i].Clone(), ts[i])
		}
	}
}

func TestCodecRejectsUnknownType(t *testing.T) {
	if _, err := AppendFrame(nil, "a", "b", struct{ X int }{1}); err == nil {
		t.Fatal("encoding a non-wire type should fail")
	}
}

// TestCodecGolden pins the exact byte layout of representative frames. A
// failure here means the wire format changed: bump CodecVersion and
// regenerate, because old and new binaries can no longer interoperate.
func TestCodecGolden(t *testing.T) {
	cases := []struct {
		name     string
		from, to string
		msg      any
		want     []byte
	}{
		{
			name: "data",
			from: "s", to: "n",
			msg: node.DataMsg{Stream: "x", Seq: 5, Tuples: []tuple.Tuple{
				tuple.Tuple{Type: tuple.Insertion, ID: 3, STime: -2, Src: 1}.WithData(7),
				{Type: tuple.Boundary, STime: 10},
			}},
			want: []byte{
				0, 0, 0, 21, // body length
				1, 1, // version, tagData
				1, 's', 1, 'n', // from, to
				1, 'x', // stream
				5,                 // seq
				2,                 // tuple count
				0, 3, 3, 2, 1, 14, // INSERTION id=3 stime=-2(zigzag 3) src=1(zigzag 2) 1 datum 7(zigzag 14)
				2, 0, 20, 0, 0, // BOUNDARY id=0 stime=10(zigzag 20) src=0 no data
			},
		},
		{
			name: "subscribe",
			from: "n", to: "s",
			msg:  node.SubscribeMsg{Stream: "x", FromID: 12, SeenTentative: true, TailOnly: false},
			want: []byte{0, 0, 0, 10, 1, 2, 1, 'n', 1, 's', 1, 'x', 12, 1},
		},
		{
			name: "keepaliveresp",
			from: "b", to: "a",
			msg: node.KeepAliveResp{Node: node.StateStable, Streams: map[string]node.StreamState{
				"z": node.StateUpFailure, "a": node.StateStable}},
			want: []byte{
				0, 0, 0, 14, 1, 6, 1, 'b', 1, 'a',
				0,         // node state STABLE
				2,         // stream count
				1, 'a', 0, // "a" STABLE (sorted first)
				1, 'z', 1, // "z" UP_FAILURE
			},
		},
		{
			name: "keepaliveresp-progress",
			from: "b", to: "a",
			msg: node.KeepAliveResp{Node: node.StateStable,
				Streams:  map[string]node.StreamState{"a": node.StateStable},
				Progress: map[string]uint64{"p": 7, "q": 300}},
			want: []byte{
				0, 0, 0, 19, 1, 6, 1, 'b', 1, 'a',
				0,         // node state STABLE
				1,         // stream count
				1, 'a', 0, // "a" STABLE
				2,         // progress count (section present: non-empty map)
				1, 'p', 7, // "p" last stable id 7
				1, 'q', 0xac, 0x02, // "q" last stable id 300 (uvarint)
			},
		},
		{
			name: "keepalivereq",
			from: "a", to: "b",
			msg:  node.KeepAliveReq{},
			want: []byte{0, 0, 0, 6, 1, 5, 1, 'a', 1, 'b'},
		},
		{
			name: "reconcileresp",
			from: "a", to: "b",
			msg:  node.ReconcileResp{Granted: true},
			want: []byte{0, 0, 0, 7, 1, 8, 1, 'a', 1, 'b', 1},
		},
		{
			name: "flowack",
			from: "", to: "",
			msg:  flowAck{Credits: 1},
			want: []byte{0, 0, 0, 5, 1, 10, 0, 0, 1},
		},
	}
	for _, c := range cases {
		got, err := AppendFrame(nil, c.from, c.to, c.msg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: wire layout changed\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// TestCodecOldKeepAliveRespCompat proves the stabilization-progress token
// was added tag-compatibly: a KeepAliveResp body from a binary predating
// the token — ending right after the stream states — decodes cleanly with
// a nil Progress map, and re-encoding that value reproduces the old bytes
// exactly. Mixed-version clusters mid-rolling-upgrade depend on both
// directions.
func TestCodecOldKeepAliveRespCompat(t *testing.T) {
	old := []byte{
		1, 6, 1, 'b', 1, 'a',
		1,         // node state UP_FAILURE
		2,         // stream count
		1, 'a', 0, // "a" STABLE
		1, 'z', 2, // "z" STABILIZATION
	}
	from, to, msg, err := DecodeFrame(old)
	if err != nil {
		t.Fatalf("old-layout frame must decode: %v", err)
	}
	ka, ok := msg.(node.KeepAliveResp)
	if !ok {
		t.Fatalf("decoded %T, want KeepAliveResp", msg)
	}
	if ka.Progress != nil {
		t.Fatalf("old-layout frame must decode with nil Progress, got %v", ka.Progress)
	}
	reenc, err := AppendFrame(nil, from, to, ka)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc[4:], old) {
		t.Fatalf("nil Progress must re-encode to the old bytes\n got % x\nwant % x", reenc[4:], old)
	}
}

// TestCodecMalformed feeds systematically broken bodies to the decoder:
// every one must return an error without panicking.
func TestCodecMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{2},                                   // wrong version
		{1},                                   // no tag
		{1, 99, 1, 'a', 1, 'b'},               // unknown tag
		{1, 1, 5, 'a'},                        // from length overruns
		{1, 1, 1, 'a', 9, 'b'},                // to length overruns
		{1, 5, 1, 'a', 1, 'b', 0},             // trailing byte after KeepAliveReq
		{1, 8, 1, 'a', 1, 'b', 2},             // ReconcileResp bool out of range
		{1, 2, 1, 'a', 1, 'b', 1, 'x', 12, 4}, // unknown subscribe flag bit
		{1, 6, 1, 'a', 1, 'b', 7, 0},          // KeepAliveResp state out of range
		{1, 6, 1, 'a', 1, 'b', 0, 2, 1, 'z', 0, 1, 'a', 0},                 // map keys out of order
		{1, 6, 1, 'a', 1, 'b', 0, 2, 1, 'a', 0, 1, 'a', 0},                 // duplicate map key
		{1, 6, 1, 'a', 1, 'b', 0, 0, 0},                                    // progress section with count 0 (non-canonical)
		{1, 6, 1, 'a', 1, 'b', 0, 0, 2, 1, 'b', 1, 1, 'a', 1},              // progress keys out of order
		{1, 6, 1, 'a', 1, 'b', 0, 0, 2, 1, 'a', 1, 1, 'a', 1},              // duplicate progress key
		{1, 6, 1, 'a', 1, 'b', 0, 0, 1, 1, 'a'},                            // truncated progress value
		{1, 1, 1, 'a', 1, 'b', 1, 'x', 1, 200, 200, 200, 200},              // absurd tuple count
		{1, 1, 1, 'a', 1, 'b', 1, 'x', 1, 1, 9, 0, 0, 0, 0},                // tuple type out of range
		{1, 1, 1, 'a', 1, 'b', 1, 'x', 1, 1, 0, 1},                         // truncated tuple
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // varint junk
	}
	// Every truncation of a valid frame must also fail cleanly.
	full, err := AppendFrame(nil, "src1", "n1", node.DataMsg{Stream: "s", Seq: 1, Tuples: []tuple.Tuple{
		tuple.Tuple{Type: tuple.Insertion, ID: 1, STime: 5}.WithData(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full)-4; i++ {
		bad = append(bad, full[4:4+i])
	}
	for i, b := range bad {
		if _, _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("case %d (% x): decode succeeded, want error", i, b)
		}
	}
}

// TestDecodeHostileCountLeavesPoolAlone pins that a DataMsg whose tuple
// count the body cannot hold is rejected before the read loop's pool is
// touched: the array waiting in the pool is still there afterwards, and a
// 2^40-tuple claim never reaches Lend's exact-size allocation.
func TestDecodeHostileCountLeavesPoolAlone(t *testing.T) {
	var pool tuple.LoanPool
	parked := pool.Lend(4)[:1]
	pool.Return(parked)
	body := binary.AppendUvarint([]byte{CodecVersion, tagData, 1, 'a', 1, 'b', 1, 's', 1}, 1<<40)
	body = append(body, 0, 1, 2, 0, 0)
	if _, _, _, err := decodeFrame(body, &pool); err == nil {
		t.Fatal("a 2^40-tuple count decoded")
	}
	if got := pool.Lend(4)[:1]; &got[0] != &parked[0] && !tuple.Poisoning() {
		t.Fatal("the rejected frame took an array from the pool")
	}
}

// FuzzFrameCodec is the satellite fuzz harness: arbitrary bytes must never
// panic the decoder, and any body that decodes must round-trip exactly —
// re-encoding the decoded frame and decoding again yields the same value
// and the same canonical bytes (second-generation round trip, so
// non-canonical inputs such as overlong varints can't trip DeepEqual). The
// read loops' pooled decode must agree with DecodeFrame on every input; its
// arrays go back to one pool, so later inputs decode into arrays earlier
// ones filled.
func FuzzFrameCodec(f *testing.F) {
	var pool tuple.LoanPool
	for _, fr := range allFrames() {
		enc, err := AppendFrame(nil, fr.from, fr.to, fr.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[4:])
	}
	f.Add([]byte{1, 1, 0, 0})
	long, err := AppendFrame(nil, "j1", "n2", node.DataMsg{Stream: "joined", Seq: 3, Tuples: longPayloadFrame()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(long[4:])
	f.Fuzz(func(t *testing.T, body []byte) {
		from, to, msg, err := DecodeFrame(body)
		pfrom, pto, pmsg, perr := decodeFrame(body, &pool)
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodeFrame error %v, pooled decode error %v", err, perr)
		}
		if err != nil {
			return
		}
		if dm, ok := pmsg.(node.DataMsg); ok {
			if len(dm.Tuples) > 0 && dm.Pool != &pool {
				t.Fatalf("pooled decode lent no array: %#v", dm)
			}
			defer pool.Return(dm.Tuples)
			dm.Pool = nil
			pmsg = dm
		}
		if pfrom != from || pto != to || !reflect.DeepEqual(pmsg, msg) {
			t.Fatalf("pooled decode diverged:\n plain (%q,%q) %#v\npooled (%q,%q) %#v", from, to, msg, pfrom, pto, pmsg)
		}
		enc, err := AppendFrame(nil, from, to, msg)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v (%#v)", err, msg)
		}
		from2, to2, msg2, err := DecodeFrame(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if from2 != from || to2 != to || !reflect.DeepEqual(msg2, msg) {
			t.Fatalf("round trip diverged:\n first (%q,%q) %#v\nsecond (%q,%q) %#v",
				from, to, msg, from2, to2, msg2)
		}
		enc2, err := AppendFrame(nil, from2, to2, msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding unstable:\n% x\n% x", enc, enc2)
		}
	})
}
