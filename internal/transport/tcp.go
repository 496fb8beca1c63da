package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Config tunes a TCP fabric.
type Config struct {
	// ListenAddr is the address to accept peer connections on
	// ("127.0.0.1:0" picks a free port; see Addr for the bound address).
	ListenAddr string
	// Routes maps remote endpoint IDs to the listen address of the
	// process hosting them. IDs absent from Routes must be registered
	// locally before they are sent to.
	Routes map[string]string
	// DialBackoff is the real-time pause between failed connection
	// attempts to a peer (default 50ms). A killed peer process keeps its
	// writer in this loop until the respawned process listens again; a
	// route re-announcement (AddRoute) kicks the sleep short.
	DialBackoff time.Duration
	// QueueLen bounds each peer's outbound frame queue (default 4096).
	// Data-class frames beyond it are dropped, like a broken connection
	// discarding its socket buffers; the DPC protocol detects the loss as
	// a DataMsg sequence gap or keep-alive timeout and re-subscribes.
	// Control-class frames instead block under flow control (see flow.go).
	QueueLen int
	// CtlWindow bounds the control-class frames in flight (sent, not yet
	// acked) to one peer (default 256).
	CtlWindow int
	// CtlTimeout is how long a control-class Send may block waiting for
	// window or queue space before dropping the frame (default 2s).
	CtlTimeout time.Duration
	// CtlBackoff is the poll pause of a blocked control-class Send
	// (default 5ms).
	CtlBackoff time.Duration
}

// TCP is the fabric.Fabric implementation carrying frames over real
// sockets. Local endpoints are delivered through the clock exactly like
// netsim (handlers only ever run on the clock's driving goroutine); remote
// endpoints are resolved through Routes to peer processes.
//
// The clock must schedule safely across goroutines: socket readers inject
// deliveries via AfterCall from their own goroutines. runtime.WallClock is;
// runtime.VirtualClock is not (a virtual clock has no place to put a
// concurrent socket anyway — use netsim for virtual runs).
type TCP struct {
	clk  runtime.Clock
	cfg  Config
	ln   net.Listener
	done chan struct{} // closed by Close; unblocks writers and stalled senders

	mu      sync.Mutex
	local   map[string]*localEndpoint
	peers   map[string]*peer // keyed by remote address
	inbound map[net.Conn]struct{}
	links   fabric.Links
	closed  bool

	conns sync.WaitGroup

	// loans lends the tuple arrays read loops decode DataMsgs into; the
	// receiving node returns each after dispatch (DataMsg.Pool).
	loans tuple.LoanPool

	deliverFn func(any)

	// Delivered counts frames handed to local handlers. Dropped is the
	// aggregate loss count; the per-cause counters below partition it:
	//
	//	DroppedDown   sender or receiver endpoint down / unregistered
	//	DroppedQueue  data-class frame shed by a full peer queue
	//	DroppedDead   peer unreachable while the fabric shut down
	//	DroppedWrite  socket write error (frame lost with the connection)
	//	DroppedLink   injected link fault (partition block)
	//	DroppedCtl    control-class frame stalled past CtlTimeout
	//
	// CtlStalls counts control-class sends that had to block at least
	// once — back-pressure working as designed, not loss.
	Delivered    atomic.Uint64
	Dropped      atomic.Uint64
	DroppedDown  atomic.Uint64
	DroppedQueue atomic.Uint64
	DroppedDead  atomic.Uint64
	DroppedWrite atomic.Uint64
	DroppedLink  atomic.Uint64
	DroppedCtl   atomic.Uint64
	CtlStalls    atomic.Uint64
}

var _ fabric.Lender = (*TCP)(nil)

// drop counts one lost frame under its cause and in the aggregate.
func (t *TCP) drop(cause *atomic.Uint64) {
	cause.Add(1)
	t.Dropped.Add(1)
}

type localEndpoint struct {
	handler fabric.Handler
	// returns marks a handler registered with RegisterReturning, which
	// is handed loans; any other owns the arrays it gets.
	returns bool
	down    bool
}

// peer is one outbound connection: a bounded frame queue drained by a
// writer goroutine that dials with backoff and reconnects on error. One
// peer per remote process keeps all (from,to) pairs routed to it in FIFO
// order — a single ordered byte stream.
type peer struct {
	addr  string
	queue chan *outFrame
	// kick interrupts a mid-backoff dial sleep when the route to this
	// address is re-announced (the peer process respawned).
	kick chan struct{}
	flow *flowWindow
}

// outFrame is one encoded frame on its way to a peer's writer. Send takes
// it from framePool and the writer puts it back once the frame is written
// or lost, so steady traffic reuses a handful of buffers instead of
// allocating and regrowing one per frame.
type outFrame struct {
	b []byte
}

// maxPooledFrame bounds the buffers framePool keeps and a connection's
// reader retains: one replay frame of megabytes must not stay pinned behind
// traffic that needs kilobytes.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any { return new(outFrame) }}

func putFrame(f *outFrame) {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

type delivery struct {
	t        *TCP
	from, to string
	msg      any
}

// Listen starts a TCP fabric on the given clock. The returned fabric is
// accepting peer connections immediately; Close releases it.
func Listen(clk runtime.Clock, cfg Config) (*TCP, error) {
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.CtlWindow <= 0 {
		cfg.CtlWindow = 256
	}
	if cfg.CtlTimeout <= 0 {
		cfg.CtlTimeout = 2 * time.Second
	}
	if cfg.CtlBackoff <= 0 {
		cfg.CtlBackoff = 5 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		clk:     clk,
		cfg:     cfg,
		ln:      ln,
		done:    make(chan struct{}),
		local:   make(map[string]*localEndpoint),
		peers:   make(map[string]*peer),
		inbound: make(map[net.Conn]struct{}),
	}
	t.deliverFn = t.deliver
	t.conns.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Close stops the listener, disconnects every peer, and waits for the
// fabric's goroutines to exit. Queued-but-unsent frames are dropped.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	close(t.done)
	t.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	t.conns.Wait()
}

// AddRoute maps a remote endpoint ID to its process's listen address.
// Cluster workers bind their listeners first and learn each other's
// addresses afterwards, so routes arrive after Listen. Re-announcing a
// route kicks the address's writer out of any dial-backoff sleep: a
// respawned peer is listening again, and waiting out the backoff would
// stretch its recovery window for nothing.
func (t *TCP) AddRoute(id, addr string) {
	t.mu.Lock()
	if t.cfg.Routes == nil {
		t.cfg.Routes = make(map[string]string)
	}
	t.cfg.Routes[id] = addr
	p := t.peers[addr]
	t.mu.Unlock()
	if p != nil {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// Register installs the handler for a local endpoint (fabric.Fabric). The
// handler owns every tuple array it receives and may keep it.
func (t *TCP) Register(id string, h fabric.Handler) { t.register(id, h, false) }

// RegisterReturning is Register for a handler that returns the arrays lent
// to it (fabric.Lender).
func (t *TCP) RegisterReturning(id string, h fabric.Handler) { t.register(id, h, true) }

func (t *TCP) register(id string, h fabric.Handler, returns bool) {
	if h == nil {
		panic("transport: nil handler for " + id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.local[id]
	if ep == nil {
		ep = &localEndpoint{}
		t.local[id] = ep
	}
	ep.handler, ep.returns = h, returns
}

// SetDown marks a local endpoint crashed or alive (fabric.Fabric).
func (t *TCP) SetDown(id string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.local[id]
	if ep == nil {
		panic("transport: unknown endpoint " + id)
	}
	ep.down = down
}

// Send queues msg for delivery (fabric.Fabric). It never keeps a lent tuple
// array: remote destinations are encoded immediately and handed to the
// owning peer's writer; local destinations are scheduled through the clock
// like netsim deliveries, with a DataMsg's lent tuples first copied
// (DataMsg.CopyTuples: into an array lent from the fabric's pool for a
// returning endpoint, as a read loop decodes them) and a given array passed
// on as it is. Control-class frames go through the flow window (see
// flow.go) and may block briefly instead of shedding.
func (t *TCP) Send(from, to string, msg any) {
	t.mu.Lock()
	src := t.local[from]
	if src == nil {
		t.mu.Unlock()
		panic(fmt.Sprintf("transport: send from unregistered endpoint %q", from))
	}
	if src.down {
		t.mu.Unlock()
		t.drop(&t.DroppedDown)
		return
	}
	if t.links.Blocked(from, to) {
		t.mu.Unlock()
		t.drop(&t.DroppedLink)
		return
	}
	if dst, isLocal := t.local[to]; isLocal {
		delay, _ := t.links.Delay(from, to)
		pool := &t.loans
		if !dst.returns {
			pool = nil
		}
		t.mu.Unlock()
		if m, ok := msg.(node.DataMsg); ok {
			if c := m.CopyTuples(pool); c != nil {
				msg = c
			}
		}
		t.clk.AfterCall(delay, t.deliverFn, &delivery{t: t, from: from, to: to, msg: msg})
		return
	}
	addr, ok := t.cfg.Routes[to]
	if !ok {
		t.mu.Unlock()
		panic(fmt.Sprintf("transport: no route to endpoint %q", to))
	}
	p := t.peers[addr]
	if p == nil {
		if t.closed {
			t.mu.Unlock()
			t.drop(&t.DroppedDead)
			return
		}
		p = &peer{
			addr:  addr,
			queue: make(chan *outFrame, t.cfg.QueueLen),
			kick:  make(chan struct{}, 1),
			flow:  newFlowWindow(),
		}
		t.peers[addr] = p
		t.conns.Add(1)
		go t.writeLoop(p)
	}
	t.mu.Unlock()
	frame := framePool.Get().(*outFrame)
	var err error
	frame.b, err = AppendFrame(frame.b[:0], from, to, msg)
	if err != nil {
		panic(err) // non-wire message type on the fabric: programming error
	}
	if isCtl(msg) {
		t.sendCtl(p, frame)
		return
	}
	select {
	case p.queue <- frame:
	default:
		putFrame(frame)
		t.drop(&t.DroppedQueue)
	}
}

// deliver runs on the clock goroutine and hands one frame to its local
// handler, evaluating down/registered/link state at delivery time like
// netsim: a crash or partition that happened while the frame was in flight
// kills it. A loan (a decoded frame, or a local send made while the
// endpoint returned loans) reaching an endpoint that keeps arrays is copied
// into one it owns.
func (t *TCP) deliver(x any) {
	d := x.(*delivery)
	t.mu.Lock()
	ep := t.local[d.to]
	var h fabric.Handler
	returns := false
	if ep != nil && !ep.down && ep.handler != nil {
		h, returns = ep.handler, ep.returns
	}
	// A send whose source endpoint crashed while the frame was in
	// flight is dropped too, matching netsim's delivery-time check.
	if src := t.local[d.from]; src != nil && src.down {
		h = nil
	}
	blocked := t.links.Blocked(d.from, d.to)
	t.mu.Unlock()
	if blocked {
		t.drop(&t.DroppedLink)
		return
	}
	if h == nil {
		t.drop(&t.DroppedDown)
		return
	}
	if m, ok := d.msg.(node.DataMsg); ok && m.Pool != nil && !returns {
		d.msg = m.CopyTuples(nil) // a loan is never given, so it is copied
		m.Pool.Return(m.Tuples)
	}
	t.Delivered.Add(1)
	h(d.from, d.msg)
}

// writeLoop drains one peer's queue onto its connection, dialing with
// backoff and reconnecting after errors, and returns each written frame's
// buffer to framePool. Frames that fail to write are dropped — the peer
// sees a gap, exactly what its protocol expects from a broken connection.
// Each live connection gets a companion ackLoop reading the receiver's
// flow-control credits off the reverse direction.
func (t *TCP) writeLoop(p *peer) {
	defer t.conns.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var frame *outFrame
		select {
		case frame = <-p.queue:
		case <-t.done:
			return
		}
		for conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err == nil {
				conn = c
				// Control frames written to the dead connection were
				// lost with their acks; free their window slots so
				// blocked senders recover with the connection.
				p.flow.reset()
				t.conns.Add(1)
				go t.ackLoop(p, c)
				break
			}
			select {
			case <-time.After(t.cfg.DialBackoff):
			case <-p.kick:
			case <-t.done:
				t.drop(&t.DroppedDead)
				frame = nil
			}
			if frame == nil {
				break
			}
		}
		if frame == nil {
			return
		}
		_, err := conn.Write(frame.b)
		putFrame(frame)
		if err != nil {
			conn.Close()
			conn = nil
			t.drop(&t.DroppedWrite)
		}
	}
}

// ackLoop consumes flow-control credit frames the receiver writes back on
// an outbound connection (the writer never reads otherwise). It exits when
// the connection dies; credits are applied to the peer's window directly —
// never through the clock — so a sender blocked in sendCtl on the clock
// goroutine can still be woken.
func (t *TCP) ackLoop(p *peer, conn net.Conn) {
	defer t.conns.Done()
	fr := newFrameReader(conn)
	for {
		body, err := fr.next()
		if err != nil {
			return
		}
		_, _, msg, err := DecodeFrame(body)
		if err != nil {
			return
		}
		if fa, ok := msg.(flowAck); ok {
			p.flow.ack(fa.Credits)
		}
	}
}

// acceptLoop owns the listener; one readLoop goroutine per inbound
// connection.
func (t *TCP) acceptLoop() {
	defer t.conns.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.conns.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes length-prefixed frames off one connection and injects
// them into the clock, one AfterCall per frame in read order: the clock's
// (at,seq) event ordering preserves the stream's FIFO order, and handlers
// still only ever run on the clock's driving goroutine. A DataMsg's tuples
// land in an array lent from t.loans; a frame dropped here or at delivery
// keeps its array, which the garbage collector takes. Control-class
// frames are acked back on the same connection the moment they are read —
// before any link-fault check, because flow control accounts for socket
// occupancy, not delivery.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.conns.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	var ackBuf []byte
	for {
		body, err := fr.next()
		if err != nil {
			return // closed, truncated or oversized frame; drop the connection
		}
		from, to, msg, err := decodeFrame(body, &t.loans)
		if err != nil {
			return // malformed frame; drop the connection
		}
		if _, isAck := msg.(flowAck); isAck {
			continue // credits only ride the reverse direction; ignore
		}
		if isCtl(msg) {
			ackBuf, err = AppendFrame(ackBuf[:0], "", "", flowAck{Credits: 1})
			if err == nil {
				// A failed ack write means the connection is dying;
				// the next ReadFull sees the error and exits.
				_, _ = conn.Write(ackBuf)
			}
		}
		t.mu.Lock()
		closed := t.closed
		blocked := t.links.Blocked(from, to)
		var delay int64
		if !blocked {
			delay, _ = t.links.Delay(from, to)
		}
		t.mu.Unlock()
		if closed {
			return
		}
		if blocked {
			t.drop(&t.DroppedLink)
			continue
		}
		t.clk.AfterCall(delay, t.deliverFn, &delivery{t: t, from: from, to: to, msg: msg})
	}
}

// readStep bounds how far one read grows a connection's body buffer past
// the bytes already received. A length prefix is only a claim: a garbled or
// hostile one must not allocate up to MaxFrameSize before the body arrives.
const readStep = 64 << 10

var errFrameSize = errors.New("transport: frame exceeds MaxFrameSize")

// frameReader reads length-prefixed frames off one connection through a
// buffered reader into one reused body buffer.
type frameReader struct {
	r    *bufio.Reader
	hdr  [4]byte
	body []byte
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(conn, readStep)}
}

// next returns the next frame's body. The slice is valid until the next
// call: it is overwritten by the following frame.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrameSize {
		return nil, errFrameSize
	}
	if cap(fr.body) > maxPooledFrame {
		fr.body = nil // the last frame was a large replay; don't pin it
	}
	b := fr.body[:0]
	for len(b) < n {
		step := min(n-len(b), readStep)
		b = slices.Grow(b, step)
		m, err := io.ReadFull(fr.r, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		if err != nil {
			fr.body = b
			return nil, err
		}
	}
	fr.body = b
	return b, nil
}
