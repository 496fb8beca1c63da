package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"borealis/internal/deploy"
	"borealis/internal/fabric"
	"borealis/internal/node"
	rtpkg "borealis/internal/runtime"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer, through the two decoratable seams the system already has:
// the runtime.Runtime every component schedules on and the fabric.Fabric
// every endpoint sends through. A decorated run must behave exactly like a
// bare one (trace_test.go compares the reports byte for byte): the
// decorators forward every call in the same order and only time it.
//
// A span is recorded at each boundary: every scheduled callback, attributed
// to the package that owns the function; every handler invocation as a
// child of the fabric delivery that made it; and, on a decorated fabric,
// every Send as a child of the callback that issued it. A layer's self time
// is its spans' duration minus the part their children cover. Spans stay in
// memory and are written out when the benchmark ends.

type layerID uint8

const (
	lySource layerID = iota
	lyFabric
	lyEngine
	lyNode
	lyOperator
	lyClient
	lyOther
	nLayers
)

var layerNames = [nLayers]string{"source", "fabric", "engine", "node", "operator", "client", "other"}

// layerOfFunc maps a function's qualified name to the layer owning it:
// "borealis/internal/netsim.(*Net).deliver-fm" → fabric.
func layerOfFunc(name string) layerID {
	const prefix = "borealis/internal/"
	i := strings.Index(name, prefix)
	if i < 0 {
		return lyOther
	}
	pkg := name[i+len(prefix):]
	if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "source":
		return lySource
	case "netsim", "transport":
		return lyFabric
	case "engine":
		return lyEngine
	case "node":
		return lyNode
	case "operator":
		return lyOperator
	case "client":
		return lyClient
	}
	return lyOther
}

// span is one recorded interval.
type span struct {
	fn     uint16 // index into tracer.names
	layer  layerID
	parent int32 // index of the enclosing span, -1 at top level
	start  int64 // ns since the tracer's epoch
	dur    int64
}

type openSpan struct {
	idx   int32
	child int64 // ns covered by already-closed children
}

type fnInfo struct {
	idx   uint16
	layer layerID
}

// tracer records the spans of one run loop. begin/end are called only from
// that run loop's goroutine; ident is safe from any goroutine (socket
// readers schedule deliveries through the decorated runtime).
type tracer struct {
	epoch time.Time
	spans []span
	open  []openSpan

	self   [nLayers]int64  // ns of self time per layer
	calls  [nLayers]uint64 // spans per layer
	events uint64          // scheduled callbacks fired (top-level spans)
	msgs   uint64          // messages delivered to handlers
	tuples uint64          // tuples those DataMsgs carried
	// remoteTuples counts DataMsg tuples sent to endpoints another process
	// side hosts (decorated fabric only): what crosses the socket.
	remoteTuples uint64

	// lateness, when set, returns how late the current callback fired
	// against its wall schedule; sampled on source-owned callbacks: how
	// late the load generator ran.
	lateness func() time.Duration
	late     []float64 // ms

	mu    sync.Mutex
	ids   map[uintptr]fnInfo
	names []string

	sendFn    fnInfo
	handlerFn [nLayers]fnInfo
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), ids: map[uintptr]fnInfo{}}
	t.sendFn = t.named("fabric.Send", lyFabric)
	for l := layerID(0); l < nLayers; l++ {
		t.handlerFn[l] = t.named(layerNames[l]+".handle", l)
	}
	return t
}

func (t *tracer) named(name string, l layerID) fnInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.names = append(t.names, name)
	return fnInfo{idx: uint16(len(t.names) - 1), layer: l}
}

// ident resolves a callback to its function name and owning layer, cached
// by code pointer.
func (t *tracer) ident(fn any) fnInfo {
	pc := reflect.ValueOf(fn).Pointer()
	t.mu.Lock()
	defer t.mu.Unlock()
	if fi, ok := t.ids[pc]; ok {
		return fi
	}
	name := "unknown"
	if f := runtime.FuncForPC(pc); f != nil {
		name = f.Name()
	}
	t.names = append(t.names, name)
	fi := fnInfo{idx: uint16(len(t.names) - 1), layer: layerOfFunc(name)}
	t.ids[pc] = fi
	return fi
}

func (t *tracer) begin(fi fnInfo) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].idx
	} else {
		t.events++
		if t.lateness != nil {
			if late := t.lateness(); fi.layer == lySource {
				t.late = append(t.late, float64(late.Nanoseconds())/1e6)
			}
		}
	}
	t.spans = append(t.spans, span{fn: fi.idx, layer: fi.layer, parent: parent, start: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, openSpan{idx: int32(len(t.spans) - 1)})
}

func (t *tracer) end() {
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	s := &t.spans[o.idx]
	s.dur = time.Since(t.epoch).Nanoseconds() - s.start
	t.self[s.layer] += s.dur - o.child
	t.calls[s.layer]++
	if n > 0 {
		t.open[n-1].child += s.dur
	}
}

// trackLateness measures every top-level callback against the wall schedule
// of a speed-1 WallClock: its Now is event-anchored, so inside a callback it
// reads the instant the callback was due. The first callback fired sets the
// origin.
func (t *tracer) trackLateness(clk rtpkg.Clock) {
	var wall0 time.Time
	var clk0 int64
	t.lateness = func() time.Duration {
		now := clk.Now()
		if wall0.IsZero() {
			wall0, clk0 = time.Now(), now
			return 0
		}
		return time.Since(wall0) - time.Duration(now-clk0)*time.Microsecond
	}
}

// busy returns the total self time over all layers.
func (t *tracer) busy() time.Duration {
	var ns int64
	for _, v := range t.self {
		ns += v
	}
	return time.Duration(ns)
}

// merge folds another run loop's totals into t (spans stay per tracer).
func (t *tracer) merge(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
	}
	t.events += o.events
	t.msgs += o.msgs
	t.tuples += o.tuples
	t.remoteTuples += o.remoteTuples
	t.late = append(t.late, o.late...)
}

// writeSpans dumps the recorded spans as CSV, one line per span.
func (t *tracer) writeSpans(path, label string, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if !appendTo {
		fmt.Fprintln(w, "loop,span,parent,layer,function,start_ns,dur_ns")
	}
	for i, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%d\n", label, i, s.parent, layerNames[s.layer], t.names[s.fn], s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- decorating Runtime ----

// tracedRuntime forwards every scheduling call to the inner runtime in the
// same order, with the callback wrapped in a span. Drive methods (Run,
// RunFor, RunUntil, Now, Pending) are the inner runtime's own.
type tracedRuntime struct {
	rtpkg.Runtime
	tr     *tracer
	callFn func(any)
}

type tracedCall struct {
	fn  func(any)
	arg any
	fi  fnInfo
}

func (t *tracer) runtime(inner rtpkg.Runtime) rtpkg.Runtime {
	r := &tracedRuntime{Runtime: inner, tr: t}
	r.callFn = func(x any) {
		c := x.(*tracedCall)
		t.begin(c.fi)
		c.fn(c.arg)
		t.end()
	}
	return r
}

func (r *tracedRuntime) wrap(fn func()) func() {
	fi := r.tr.ident(fn)
	return func() {
		r.tr.begin(fi)
		fn()
		r.tr.end()
	}
}

func (r *tracedRuntime) At(t int64, fn func()) rtpkg.Timer { return r.Runtime.At(t, r.wrap(fn)) }

func (r *tracedRuntime) After(d int64, fn func()) rtpkg.Timer { return r.Runtime.After(d, r.wrap(fn)) }

func (r *tracedRuntime) AtCall(t int64, fn func(any), arg any) rtpkg.Timer {
	return r.Runtime.AtCall(t, r.callFn, &tracedCall{fn: fn, arg: arg, fi: r.tr.ident(fn)})
}

func (r *tracedRuntime) AfterCall(d int64, fn func(any), arg any) rtpkg.Timer {
	return r.Runtime.AfterCall(d, r.callFn, &tracedCall{fn: fn, arg: arg, fi: r.tr.ident(fn)})
}

func (r *tracedRuntime) NewTicker(interval int64, fn func()) rtpkg.Ticker {
	return r.Runtime.NewTicker(interval, r.wrap(fn))
}

// ---- decorating Fabric ----

// handler wraps an endpoint's handler in a span of the endpoint's layer and
// counts the messages and tuples it receives.
func (t *tracer) handler(l layerID, h fabric.Handler) fabric.Handler {
	fi := t.handlerFn[l]
	return func(from string, msg any) {
		t.msgs++
		if dm, ok := msg.(node.DataMsg); ok {
			t.tuples += uint64(len(dm.Tuples))
		}
		t.begin(fi)
		h(from, msg)
		t.end()
	}
}

// tracedFabric wraps every registered handler and every Send in a span.
type tracedFabric struct {
	fabric.Fabric
	tr *tracer
	// layerOf classifies an endpoint at Register time; isLocal tells
	// whether this side hosts an endpoint.
	layerOf func(id string) layerID
	isLocal func(id string) bool
}

func (f *tracedFabric) Register(id string, h fabric.Handler) {
	f.Fabric.Register(id, f.tr.handler(f.layerOf(id), h))
}

func (f *tracedFabric) Send(from, to string, msg any) {
	if dm, ok := msg.(node.DataMsg); ok && !f.isLocal(to) {
		f.tr.remoteTuples += uint64(len(dm.Tuples))
	}
	f.tr.begin(f.tr.sendFn)
	f.Fabric.Send(from, to, msg)
	f.tr.end()
}

// wrapHandlers re-registers every node's and the client's handler on the
// deployment's own fabric behind wrap. A deployment built by scenario.Build
// creates its netsim internally, so the fabric cannot be decorated at
// construction; Node.HandleMessage is the interposition point the node
// package offers instead.
func wrapHandlers(dep *deploy.Deployment, wrap func(id string, l layerID, h fabric.Handler) fabric.Handler) {
	for _, row := range dep.Nodes {
		for _, n := range row {
			if n != nil {
				dep.Fab.Register(n.ID(), wrap(n.ID(), lyNode, n.HandleMessage))
			}
		}
	}
	if dep.Client != nil {
		dep.Fab.Register("client", wrap("client", lyClient, dep.Client.Proxy().HandleMessage))
	}
}
