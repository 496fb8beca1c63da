// Package client implements DPC-speaking client applications (§2.2: "data
// sources and clients implement DPC ... by having them communicate with the
// system through proxies"). A Client owns a proxy — a regular processing
// node running a pass-through diagram (input SUnion → SOutput) — that does
// the protocol work: upstream replica monitoring, Table II switching, dual
// connections, undo handling, and its own reconciliation. The client
// application layer taps the proxy's output locally and keeps the metrics
// the paper reports:
//
//   - Procnew / Delaynew (§2.3.1): the maximum processing latency over
//     output tuples carrying new information;
//   - Ntentative (§2.3.3): tentative tuples received, both in total and as
//     the Definition 2 "since the last stable tuple" streak;
//   - the eventual-consistency audit (Definition 1): the undo-compacted
//     delivered stream must equal a failure-free reference run, with no
//     stable tuple duplicated.
package client

import (
	"fmt"
	"math"

	"borealis/internal/diagram"
	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// Config parameterizes a client.
type Config struct {
	// ID is the proxy's network endpoint.
	ID string
	// Stream is the output stream to consume; Upstreams lists the
	// replica endpoints producing it.
	Stream    string
	Upstreams []string
	// BucketSize and Delay parameterize the proxy's SUnion (the delay is
	// the slack the client itself adds before exposing tentative data;
	// keep it small so measurements reflect the processing nodes).
	BucketSize int64
	Delay      int64
	// TentativeWait overrides the proxy SUnion's tentative-bucket wait.
	TentativeWait int64
	// TentativeBoundaries enables the footnote-5 extension at the proxy.
	TentativeBoundaries bool
	// StallTimeout, CM: proxy node tuning (zero = defaults).
	StallTimeout int64
	CM           node.CMConfig
	// AckInterval paces acknowledgments to the upstream replicas,
	// enabling their output-buffer truncation (§8.1).
	AckInterval int64
	// NoAudit disables the consistency-audit instrumentation: the
	// undo-compacted view (48 B per delivered data tuple) and the
	// stable-duplicate set (16 B and a hash per stable tuple), both kept
	// for the whole run in fixed segments. View/StableView return nothing
	// and Stats.StableDuplicates stays zero. Benchmark harnesses only —
	// every correctness path keeps the audit on.
	NoAudit bool
}

// Delivery is one tuple delivered to the client, with its arrival time.
type Delivery struct {
	At    int64
	Tuple tuple.Tuple
}

// Stats summarizes what the client observed.
type Stats struct {
	// NewTuples counts the deliveries that raised the client's stime
	// high-water mark — the ones Procnew is measured over. Every tuple of
	// one source tick shares an stime, so this is one count per distinct
	// stime, not one per tuple. ResetLatency restarts the count.
	NewTuples uint64
	// MaxLatency is Procnew·(the maximum now−stime over new tuples).
	MaxLatency int64
	// MinLatency / MeanLatency / StdevLatency summarize per-new-tuple
	// latency (Tables IV and V).
	MinLatency   int64
	MeanLatency  float64
	StdevLatency float64
	// Tentative is the total number of tentative tuples delivered.
	Tentative uint64
	// MaxTentativeStreak is the Definition 2 peak: tentative tuples
	// since the last stable tuple, maximized over time.
	MaxTentativeStreak uint64
	// Undos and RecDones count control tuples delivered.
	Undos, RecDones uint64
	// StableDuplicates counts stable tuples delivered twice — eventual
	// consistency requires this to stay zero.
	StableDuplicates uint64
}

// Client consumes one output stream through a DPC proxy node.
type Client struct {
	cfg   Config
	clk   runtime.Clock
	proxy *node.Node

	// Undo-compacted view of the delivered stream; segs takes back the
	// segments an UNDO empties and lends them to the next appends.
	view node.TupleLog
	segs tuple.LoanPool

	// Newness watermark.
	maxSTime int64

	// Latency accumulators over new tuples.
	latSum, latSumSq float64
	latCount         uint64
	latMin, latMax   int64

	tentative uint64
	streak    uint64
	maxStreak uint64
	undos     uint64
	recDones  uint64

	stableSeen stableSet
	stableDups uint64

	onDeliver func(Delivery)
}

// New builds a client and its proxy node.
func New(clk runtime.Clock, net fabric.Fabric, cfg Config) (*Client, error) {
	if cfg.BucketSize <= 0 {
		cfg.BucketSize = 100 * runtime.Millisecond
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 100 * runtime.Millisecond
	}
	b := diagram.NewBuilder()
	su := operator.NewSUnion("proxy_in", operator.SUnionConfig{
		Ports:               1,
		BucketSize:          cfg.BucketSize,
		Delay:               cfg.Delay,
		TentativeWait:       cfg.TentativeWait,
		TentativeBoundaries: cfg.TentativeBoundaries,
	})
	b.Add(su)
	b.Add(operator.NewSOutput("proxy_out"))
	b.Connect("proxy_in", "proxy_out", 0)
	b.Input(cfg.Stream, "proxy_in", 0)
	out := cfg.Stream + ".client"
	b.Output(out, "proxy_out")
	d, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	proxy, err := node.New(clk, net, d, node.Config{
		ID:           cfg.ID,
		Upstreams:    map[string][]string{cfg.Stream: cfg.Upstreams},
		StallTimeout: cfg.StallTimeout,
		CM:           cfg.CM,
		AckInterval:  cfg.AckInterval,
		TapOnly:      true,
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		clk:      clk,
		proxy:    proxy,
		maxSTime: -1,
		latMin:   math.MaxInt64,
	}
	c.view = node.NewTupleLog(&c.segs)
	proxy.OnDeliver(func(_ string, t tuple.Tuple) { c.consume(t) })
	return c, nil
}

// Start begins consuming.
func (c *Client) Start() { c.proxy.Start() }

// Proxy exposes the underlying proxy node.
func (c *Client) Proxy() *node.Node { return c.proxy }

// OnDeliver registers the per-delivery callback (figure series capture),
// replacing any earlier one.
func (c *Client) OnDeliver(fn func(Delivery)) { c.onDeliver = fn }

// consume processes one tuple delivered by the proxy.
func (c *Client) consume(t tuple.Tuple) {
	now := c.clk.Now()
	if c.onDeliver != nil {
		c.onDeliver(Delivery{At: now, Tuple: t})
	}
	switch {
	case t.IsData():
		if !c.cfg.NoAudit {
			c.view.Append(t)
		}
		if t.Type == tuple.Tentative {
			c.tentative++
			c.streak++
			if c.streak > c.maxStreak {
				c.maxStreak = c.streak
			}
		} else {
			c.streak = 0
			if !c.cfg.NoAudit {
				if c.stableSeen.add(stableKey(t)) {
					c.stableDups++
				}
			}
		}
		if t.STime > c.maxSTime {
			c.maxSTime = t.STime
			lat := now - t.STime
			c.latCount++
			c.latSum += float64(lat)
			c.latSumSq += float64(lat) * float64(lat)
			if lat < c.latMin {
				c.latMin = lat
			}
			if lat > c.latMax {
				c.latMax = lat
			}
		}
	case t.Type == tuple.Undo:
		c.undos++
		if !c.cfg.NoAudit {
			c.view.Undo(t.ID)
		}
	case t.Type == tuple.RecDone:
		c.recDones++
	}
}

// stableID is a cheap identity key for duplicate detection: timestamp plus
// an FNV-1a hash of the payload.
type stableID struct {
	stime int64
	hash  uint64
}

func stableKey(t tuple.Tuple) stableID {
	h := uint64(14695981039346656037)
	for _, v := range t.Values() {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	return stableID{stime: t.STime, hash: h}
}

// stableSegSize is the length, in keys, of one segment of a stableSet's log
// (16 KiB at 16 bytes a key).
const stableSegSize = 1024

// stableSet is the exact set of stable keys delivered so far, laid out for
// the order they arrive in. The proxy's SUnion emits sorted buckets, so
// stable tuples reach the client in non-decreasing stime. Every key at or
// past the newest stime is appended to a log of fixed segments, which is
// therefore in stime order and never recopied, and the newest stime's
// hashes are indexed in cur: an in-order key costs one lookup in a map of
// one stime's keys plus one append, and a newer stime only clears cur. An
// older key binary-searches the log for its stime, scans that stime's keys,
// and looks in late, the map of older keys that arrived after a newer
// stime: any earlier copy of it is in one of the two. When new, it joins
// late, so a stream of redelivered old tuples never shifts the log. Unlike
// one map of every key of the run, the hot structures stay the size of one
// stime.
type stableSet struct {
	segs   []*[stableSegSize]stableID
	n      int   // keys in the log
	newest int64 // stime of the log's last key, when n > 0
	cur    map[uint64]struct{}
	late   map[stableID]struct{}
}

// at returns log key i.
func (s *stableSet) at(i int) stableID { return s.segs[i/stableSegSize][i%stableSegSize] }

// add inserts k and reports whether it was already present.
func (s *stableSet) add(k stableID) bool {
	if s.n > 0 && k.stime < s.newest {
		if s.logged(k) {
			return true
		}
		if _, found := s.late[k]; found {
			return true
		}
		if s.late == nil {
			s.late = make(map[stableID]struct{})
		}
		s.late[k] = struct{}{}
		return false
	}
	if s.n == 0 || k.stime > s.newest {
		s.newest = k.stime
		if s.cur == nil {
			s.cur = make(map[uint64]struct{})
		}
		clear(s.cur)
	}
	if _, ok := s.cur[k.hash]; ok {
		return true
	}
	s.cur[k.hash] = struct{}{}
	if s.n == len(s.segs)*stableSegSize {
		s.segs = append(s.segs, new([stableSegSize]stableID))
	}
	s.segs[s.n/stableSegSize][s.n%stableSegSize] = k
	s.n++
	return false
}

// logged reports whether the log holds k: a binary search for the first key
// of k's stime, then a scan of that stime's keys.
func (s *stableSet) logged(k stableID) bool {
	lo, hi := 0, s.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.at(m).stime < k.stime {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for i := lo; i < s.n; i++ {
		x := s.at(i)
		if x.stime != k.stime {
			return false
		}
		if x.hash == k.hash {
			return true
		}
	}
	return false
}

// Stats returns the metrics accumulated so far.
func (c *Client) Stats() Stats {
	s := Stats{
		NewTuples:          c.latCount,
		MaxLatency:         c.latMax,
		Tentative:          c.tentative,
		MaxTentativeStreak: c.maxStreak,
		Undos:              c.undos,
		RecDones:           c.recDones,
		StableDuplicates:   c.stableDups,
	}
	if c.latCount > 0 {
		s.MinLatency = c.latMin
		s.MeanLatency = c.latSum / float64(c.latCount)
		v := c.latSumSq/float64(c.latCount) - s.MeanLatency*s.MeanLatency
		if v > 0 {
			s.StdevLatency = math.Sqrt(v)
		}
	}
	return s
}

// ResetLatency clears the latency accumulators (phase-scoped measurement).
func (c *Client) ResetLatency() {
	c.latSum, c.latSumSq, c.latCount = 0, 0, 0
	c.latMin, c.latMax = math.MaxInt64, 0
}

// View returns the undo-compacted delivered stream (nil when empty).
func (c *Client) View() []tuple.Tuple {
	if c.view.Len() == 0 {
		return nil
	}
	out := make([]tuple.Tuple, 0, c.view.Len())
	c.view.Chunks(func(ts []tuple.Tuple) { out = append(out, ts...) })
	return out
}

// StableView returns only the stable prefix content of the delivered
// stream (tentative tuples excluded): what Definition 1 compares. It counts
// the stable tuples first and allocates once (nil when there are none).
func (c *Client) StableView() []tuple.Tuple {
	n := 0
	c.view.Chunks(func(ts []tuple.Tuple) {
		for i := range ts {
			if ts[i].Type == tuple.Insertion {
				n++
			}
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]tuple.Tuple, 0, n)
	c.view.Chunks(func(ts []tuple.Tuple) {
		for i := range ts {
			if ts[i].Type == tuple.Insertion {
				out = append(out, ts[i])
			}
		}
	})
	return out
}

// AuditResult reports the eventual-consistency audit.
type AuditResult struct {
	OK               bool
	Reason           string
	Compared         int
	StableDuplicates uint64
}

// VerifyRecentWindow checks the §8.1 convergent-capable guarantee: the most
// recent n stable tuples must match the reference's most recent n, even if
// older corrections were sacrificed to bounded buffers.
func (c *Client) VerifyRecentWindow(reference []tuple.Tuple, n int) AuditResult {
	got := c.StableView()
	var ref []tuple.Tuple
	for _, t := range reference {
		if t.Type == tuple.Insertion {
			ref = append(ref, t)
		}
	}
	if len(got) < n || len(ref) < n {
		return AuditResult{OK: false, Reason: "not enough stable output to compare"}
	}
	got = got[len(got)-n:]
	ref = ref[len(ref)-n:]
	for i := 0; i < n; i++ {
		if !tuple.SameValue(got[i], ref[i]) {
			return AuditResult{
				OK:     false,
				Reason: fmt.Sprintf("recent window diverges at %d: got %v, want %v", i, got[i], ref[i]),
			}
		}
	}
	return AuditResult{OK: true, Compared: n}
}

// VerifyEventualConsistency checks Definition 1 against a failure-free
// reference stream: the client's final stable view must equal the
// reference, value for value, with no stable duplicates delivered.
func (c *Client) VerifyEventualConsistency(reference []tuple.Tuple) AuditResult {
	res := VerifyViews(c.StableView(), reference)
	if res.OK {
		res.StableDuplicates = c.stableDups
	}
	return res
}

// VerifyViews is the Definition 1 comparison on bare views: got is a stable
// (insertion-only) view, reference a failure-free run's delivered stream
// (tentative tuples are filtered out here). The cluster boss audits a
// worker's shipped stable view against its local reference run with it — no
// live Client needed on the auditing side.
func VerifyViews(got, reference []tuple.Tuple) AuditResult {
	ref := make([]tuple.Tuple, 0, len(reference))
	for _, t := range reference {
		if t.Type == tuple.Insertion {
			ref = append(ref, t)
		}
	}
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if !tuple.SameValue(got[i], ref[i]) {
			return AuditResult{
				OK:     false,
				Reason: fmt.Sprintf("divergence at stable position %d: got %v, want %v", i, got[i], ref[i]),
			}
		}
	}
	// Note: Stats().StableDuplicates is a heuristic (identical payloads can
	// legitimately repeat, e.g. join outputs); genuine re-delivery shifts
	// positions and is caught by the comparison above.
	return AuditResult{OK: true, Compared: n}
}
