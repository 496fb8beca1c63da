// Package transport is the TCP implementation of the fabric surface
// (internal/fabric): the same Register/Send contract the in-process
// simulator provides, carried over real sockets between processes. Frames
// use a versioned, length-prefixed binary codec covering every message type
// that crosses netsim in a scenario run; delivery is injected into the
// receiving process's clock so node code stays single-threaded.
package transport

import (
	"encoding/binary"
	"fmt"
	"sort"

	"borealis/internal/node"
	"borealis/internal/tuple"
)

// CodecVersion is the wire-format version byte leading every frame body. A
// reader that sees any other value must drop the connection: there is no
// cross-version negotiation.
const CodecVersion = 1

// MaxFrameSize bounds the body length a reader will accept. A DataMsg
// replaying a long log is the largest legitimate frame; anything beyond
// this is a corrupt or hostile peer.
const MaxFrameSize = 64 << 20

// Frame type tags. The tag order is wire format: renumbering is a
// compatibility break and must bump CodecVersion.
const (
	tagData          = 1
	tagSubscribe     = 2
	tagUnsubscribe   = 3
	tagAck           = 4
	tagKeepAliveReq  = 5
	tagKeepAliveResp = 6
	tagReconcileReq  = 7
	tagReconcileResp = 8
	tagReconcileDone = 9
	tagFlowAck       = 10
)

// flowAck is the transport-internal credit frame of the control-frame flow
// window: the receiving process acknowledges control-class frames it has
// read, and the sender's ack reader returns the credits to the peer's
// window. It travels the reverse direction of a data connection and is
// consumed by the transport itself — it is never delivered to a handler.
type flowAck struct {
	Credits uint64
}

// subscribe flag bits (one byte on the wire; unknown bits are a decode
// error so format drift fails loudly).
const (
	subSeenTentative = 1 << 0
	subTailOnly      = 1 << 1
)

// AppendFrame appends one encoded frame — a big-endian uint32 body length
// followed by the body — to dst and returns the extended slice. The body is
// [version][tag][from][to][payload]; strings are uvarint-length-prefixed.
// Only the nine node message types plus the transport's own flowAck cross
// the fabric; anything else is a programming error.
func AppendFrame(dst []byte, from, to string, msg any) ([]byte, error) {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // body length backpatched below
	dst = append(dst, CodecVersion)
	var err error
	switch m := msg.(type) {
	case node.DataMsg:
		dst = append(dst, tagData)
		dst = appendAddr(dst, from, to)
		dst = appendString(dst, m.Stream)
		dst = binary.AppendUvarint(dst, m.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(m.Tuples)))
		for _, t := range m.Tuples {
			dst = appendTuple(dst, t)
		}
	case node.SubscribeMsg:
		dst = append(dst, tagSubscribe)
		dst = appendAddr(dst, from, to)
		dst = appendString(dst, m.Stream)
		dst = binary.AppendUvarint(dst, m.FromID)
		var flags byte
		if m.SeenTentative {
			flags |= subSeenTentative
		}
		if m.TailOnly {
			flags |= subTailOnly
		}
		dst = append(dst, flags)
	case node.UnsubscribeMsg:
		dst = append(dst, tagUnsubscribe)
		dst = appendAddr(dst, from, to)
		dst = appendString(dst, m.Stream)
	case node.AckMsg:
		dst = append(dst, tagAck)
		dst = appendAddr(dst, from, to)
		dst = appendString(dst, m.Stream)
		dst = binary.AppendUvarint(dst, m.UpToID)
	case node.KeepAliveReq:
		dst = append(dst, tagKeepAliveReq)
		dst = appendAddr(dst, from, to)
	case node.KeepAliveResp:
		dst = append(dst, tagKeepAliveResp)
		dst = appendAddr(dst, from, to)
		dst = append(dst, byte(m.Node))
		dst = binary.AppendUvarint(dst, uint64(len(m.Streams)))
		// Sorted keys: encoding must be a pure function of the value so
		// golden-byte tests (and cross-process diffing) are stable.
		keys := make([]string, 0, len(m.Streams))
		for k := range m.Streams {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = append(dst, byte(m.Streams[k]))
		}
		// Stabilization-progress token, appended tag-compatibly after the
		// stream states: a body that simply ends here (frames from
		// binaries predating the token) decodes with a nil map, and a nil
		// map encodes to the old bytes — so decode∘encode stays the
		// identity in both directions across the format change.
		if len(m.Progress) > 0 {
			dst = binary.AppendUvarint(dst, uint64(len(m.Progress)))
			pkeys := make([]string, 0, len(m.Progress))
			for k := range m.Progress {
				pkeys = append(pkeys, k)
			}
			sort.Strings(pkeys)
			for _, k := range pkeys {
				dst = appendString(dst, k)
				dst = binary.AppendUvarint(dst, m.Progress[k])
			}
		}
	case node.ReconcileReq:
		dst = append(dst, tagReconcileReq)
		dst = appendAddr(dst, from, to)
	case node.ReconcileResp:
		dst = append(dst, tagReconcileResp)
		dst = appendAddr(dst, from, to)
		if m.Granted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case node.ReconcileDone:
		dst = append(dst, tagReconcileDone)
		dst = appendAddr(dst, from, to)
	case flowAck:
		dst = append(dst, tagFlowAck)
		dst = appendAddr(dst, from, to)
		dst = binary.AppendUvarint(dst, m.Credits)
	default:
		return dst[:lenAt], fmt.Errorf("transport: cannot encode %T", msg)
	}
	body := len(dst) - lenAt - 4
	if body > MaxFrameSize {
		return dst[:lenAt], fmt.Errorf("transport: frame body %d exceeds max %d", body, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(body))
	return dst, err
}

func appendAddr(dst []byte, from, to string) []byte {
	dst = appendString(dst, from)
	return appendString(dst, to)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendTuple(dst []byte, t tuple.Tuple) []byte {
	dst = append(dst, byte(t.Type))
	dst = binary.AppendUvarint(dst, t.ID)
	dst = binary.AppendVarint(dst, t.STime)
	dst = binary.AppendVarint(dst, int64(t.Src))
	vals := t.Values()
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// payloadChunk caps, in values, the chunk a frame's long payloads are
// carved from (see decodeTuple).
const payloadChunk = 4096

// reader is a bounds-checked cursor over one frame body. Every read
// returns ok=false past the end instead of panicking: the decoder must
// survive arbitrary bytes from the network. Decoded values never alias b:
// strings and tuple payloads are copied out, so the caller may reuse the
// body buffer for the next frame.
type reader struct {
	b   []byte
	pos int
	// arena carves the frame's payloads longer than two values (see
	// decodeTuple).
	arena tuple.I64Arena
}

func (r *reader) byte() (byte, bool) {
	if r.pos >= len(r.b) {
		return 0, false
	}
	c := r.b[r.pos]
	r.pos++
	return c, true
}

func (r *reader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *reader) varint() (int64, bool) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *reader) string() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.pos) {
		return "", false
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, true
}

func (r *reader) streamState() (node.StreamState, bool) {
	c, ok := r.byte()
	if !ok || c > byte(node.StateFailure) {
		return 0, false
	}
	return node.StreamState(c), true
}

var errMalformed = fmt.Errorf("transport: malformed frame")

// DecodeFrame decodes one frame body (the bytes after the uint32 length
// prefix) into its addressing and message. It never panics on malformed
// input; every syntactically invalid body — truncation, unknown tags or
// flag bits, out-of-range enum values, trailing garbage — returns an error.
// The result does not alias body.
func DecodeFrame(body []byte) (from, to string, msg any, err error) {
	return decodeFrame(body, nil)
}

// decodeFrame is DecodeFrame decoding a DataMsg's tuples into an array lent
// from pool, which the message names as its Pool (a nil pool allocates the
// array and lends nothing).
func decodeFrame(body []byte, pool *tuple.LoanPool) (from, to string, msg any, err error) {
	r := &reader{b: body}
	ver, ok := r.byte()
	if !ok {
		return "", "", nil, errMalformed
	}
	if ver != CodecVersion {
		return "", "", nil, fmt.Errorf("transport: codec version %d, want %d", ver, CodecVersion)
	}
	tag, ok := r.byte()
	if !ok {
		return "", "", nil, errMalformed
	}
	from, ok = r.string()
	if !ok {
		return "", "", nil, errMalformed
	}
	to, ok = r.string()
	if !ok {
		return "", "", nil, errMalformed
	}
	switch tag {
	case tagData:
		var m node.DataMsg
		if m.Stream, ok = r.string(); !ok {
			return "", "", nil, errMalformed
		}
		if m.Seq, ok = r.uvarint(); !ok {
			return "", "", nil, errMalformed
		}
		n, ok := r.uvarint()
		if !ok {
			return "", "", nil, errMalformed
		}
		// Each encoded tuple is at least 5 bytes; reject counts the
		// remaining body cannot possibly hold before allocating.
		if n > uint64(len(r.b)-r.pos)/5+1 {
			return "", "", nil, errMalformed
		}
		if n > 0 {
			m.Tuples = pool.Lend(int(n))
			m.Pool = pool
		}
		for i := uint64(0); i < n; i++ {
			t, ok := decodeTuple(r, n-i)
			if !ok {
				return "", "", nil, errMalformed
			}
			m.Tuples = append(m.Tuples, t)
		}
		msg = m
	case tagSubscribe:
		var m node.SubscribeMsg
		if m.Stream, ok = r.string(); !ok {
			return "", "", nil, errMalformed
		}
		if m.FromID, ok = r.uvarint(); !ok {
			return "", "", nil, errMalformed
		}
		flags, ok := r.byte()
		if !ok || flags&^(subSeenTentative|subTailOnly) != 0 {
			return "", "", nil, errMalformed
		}
		m.SeenTentative = flags&subSeenTentative != 0
		m.TailOnly = flags&subTailOnly != 0
		msg = m
	case tagUnsubscribe:
		var m node.UnsubscribeMsg
		if m.Stream, ok = r.string(); !ok {
			return "", "", nil, errMalformed
		}
		msg = m
	case tagAck:
		var m node.AckMsg
		if m.Stream, ok = r.string(); !ok {
			return "", "", nil, errMalformed
		}
		if m.UpToID, ok = r.uvarint(); !ok {
			return "", "", nil, errMalformed
		}
		msg = m
	case tagKeepAliveReq:
		msg = node.KeepAliveReq{}
	case tagKeepAliveResp:
		var m node.KeepAliveResp
		if m.Node, ok = r.streamState(); !ok {
			return "", "", nil, errMalformed
		}
		n, ok := r.uvarint()
		if !ok || n > uint64(len(r.b)-r.pos)/2+1 {
			return "", "", nil, errMalformed
		}
		if n > 0 {
			m.Streams = make(map[string]node.StreamState, n)
		}
		prev := ""
		for i := uint64(0); i < n; i++ {
			k, ok := r.string()
			if !ok {
				return "", "", nil, errMalformed
			}
			// Keys must be strictly ascending: the canonical encoding
			// sorts them, and rejecting any other order (or duplicates)
			// keeps decode(encode(decode(x))) == decode(x).
			if i > 0 && k <= prev {
				return "", "", nil, errMalformed
			}
			prev = k
			s, ok := r.streamState()
			if !ok {
				return "", "", nil, errMalformed
			}
			m.Streams[k] = s
		}
		// The stabilization-progress token is optional on the wire: a
		// body ending after the stream states is a pre-token frame and
		// decodes with a nil map. When present, the section must be
		// canonical — non-empty, strictly ascending keys — so that
		// encoding stays a pure function of the value.
		if r.pos < len(r.b) {
			pn, ok := r.uvarint()
			if !ok || pn == 0 || pn > uint64(len(r.b)-r.pos)/2+1 {
				return "", "", nil, errMalformed
			}
			m.Progress = make(map[string]uint64, pn)
			prev = ""
			for i := uint64(0); i < pn; i++ {
				k, ok := r.string()
				if !ok {
					return "", "", nil, errMalformed
				}
				if i > 0 && k <= prev {
					return "", "", nil, errMalformed
				}
				prev = k
				v, ok := r.uvarint()
				if !ok {
					return "", "", nil, errMalformed
				}
				m.Progress[k] = v
			}
		}
		msg = m
	case tagReconcileReq:
		msg = node.ReconcileReq{}
	case tagReconcileResp:
		var m node.ReconcileResp
		c, ok := r.byte()
		if !ok || c > 1 {
			return "", "", nil, errMalformed
		}
		m.Granted = c == 1
		msg = m
	case tagReconcileDone:
		msg = node.ReconcileDone{}
	case tagFlowAck:
		var m flowAck
		if m.Credits, ok = r.uvarint(); !ok {
			return "", "", nil, errMalformed
		}
		msg = m
	default:
		return "", "", nil, fmt.Errorf("transport: unknown frame tag %d", tag)
	}
	if r.pos != len(r.b) {
		return "", "", nil, fmt.Errorf("transport: %d trailing bytes after frame", len(r.b)-r.pos)
	}
	return from, to, msg, nil
}

func decodeTuple(r *reader, tuplesLeft uint64) (tuple.Tuple, bool) {
	var t tuple.Tuple
	c, ok := r.byte()
	if !ok || c > byte(tuple.RecDone) {
		return t, false
	}
	t.Type = tuple.Type(c)
	if t.ID, ok = r.uvarint(); !ok {
		return t, false
	}
	if t.STime, ok = r.varint(); !ok {
		return t, false
	}
	src, ok := r.varint()
	if !ok || src < -1<<31 || src > 1<<31-1 {
		return t, false
	}
	t.Src = int32(src)
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.pos) {
		return t, false
	}
	var buf [8]int64 // the values of a payload this short stay on the stack
	vals := buf[:0]
	if n > uint64(len(buf)) {
		vals = make([]int64, 0, n)
	}
	for range n {
		v, ok := r.varint()
		if !ok {
			return t, false
		}
		vals = append(vals, v)
	}
	var arena *tuple.I64Arena // up to two values go inline
	if n > 2 {
		// A longer payload is carved from an arena sized for the rest of
		// the frame — the remaining tuples at this tuple's width, capped
		// at payloadChunk values unless this one is longer — so a frame of
		// uniform tuples costs one chunk instead of one per tuple. The
		// size depends on the decoded counts alone, not on how long their
		// varints were, so equal frames decode to deeply equal tuples.
		arena = &r.arena
		arena.Reserve(int(min(n*tuplesLeft, max(n, payloadChunk))))
	}
	t.SetData(arena, vals...)
	return t, true
}
