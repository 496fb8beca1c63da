package node

import (
	"math/rand"
	"sort"

	"borealis/internal/runtime"
)

// CMConfig parameterizes a Consistency Manager.
type CMConfig struct {
	// KeepAlive is the probe period (§5.1 uses 100 ms).
	KeepAlive int64
	// KeepAliveTimeout marks a replica unreachable after this silence.
	KeepAliveTimeout int64
	// RetryInterval paces reconciliation-authorization retries (Fig. 9).
	RetryInterval int64
	// GrantTimeout releases a reconciliation promise if the peer never
	// reports completion (crash safety). It is the backstop of last
	// resort; the progress probe below bounds the common stalls long
	// before it fires.
	GrantTimeout int64
	// GrantStallWindow bounds how long a granted peer may answer
	// keep-alives without advancing its stabilization-progress token (or
	// while reporting STABLE, i.e. done) before the grant is revoked. A
	// partitioned-but-alive peer happily answers keep-alives forever, so
	// liveness alone would hold the promise for the full GrantTimeout.
	GrantStallWindow int64
	// Stagger enables the inter-replica protocol; without it every
	// authorization is self-granted immediately (the Suspend variant of
	// §6.1, where no second version stays available).
	Stagger bool
}

func (c *CMConfig) normalize() {
	if c.KeepAlive <= 0 {
		c.KeepAlive = 100 * runtime.Millisecond
	}
	if c.KeepAliveTimeout <= 0 {
		c.KeepAliveTimeout = c.KeepAlive*2 + c.KeepAlive/2
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 100 * runtime.Millisecond
	}
	if c.GrantTimeout <= 0 {
		c.GrantTimeout = 120 * runtime.Second
	}
	if c.GrantStallWindow <= 0 {
		c.GrantStallWindow = DefaultGrantStallWindow(c.KeepAlive, c.KeepAliveTimeout)
	}
}

// DefaultGrantStallWindow derives the grant stall window from the probe
// cadence: long enough that several keep-alive rounds (and the token
// refreshes they carry) fit inside it, short enough that a stalled grant
// never starves the granter for anything near the GrantTimeout. Exported
// so the fuzzer's starvation oracle can assert the same bound the CM
// enforces.
func DefaultGrantStallWindow(keepAlive, keepAliveTimeout int64) int64 {
	if keepAlive <= 0 {
		keepAlive = 100 * runtime.Millisecond
	}
	if keepAliveTimeout <= 0 {
		keepAliveTimeout = keepAlive*2 + keepAlive/2
	}
	w := 10 * keepAlive
	if m := 2 * keepAliveTimeout; w < m {
		w = m
	}
	return w
}

// upstreamView is what the CM knows about the replicas producing one input
// stream.
type upstreamView struct {
	stream   string
	replicas []string
	states   map[string]StreamState
	lastResp map[string]int64
	// subscribed tracks endpoints this node currently subscribes to.
	subscribed map[string]bool
	// broken marks endpoints whose connection failed while subscribed:
	// data sent in the meantime was lost, so a fresh subscription (with
	// replay from the last stable tuple, Fig. 8) is required when the
	// endpoint becomes reachable again.
	broken map[string]bool
}

// CM is the Consistency Manager (§3): it monitors the replicas of every
// upstream neighbor with keep-alives, switches connections per the
// condition-action rules of Table II (refined with the dual-connection rule
// of §4.4.3), and runs the inter-replica stagger protocol of Fig. 9 that
// keeps one replica processing new data while another reconciles.
type CM struct {
	node *Node
	cfg  CMConfig
	ups  map[string]*upstreamView
	rng  *rand.Rand

	ticker runtime.Ticker

	// confirming tracks an in-flight probe of a switch-to-STABLE
	// candidate, per stream: both replicas of an upstream typically
	// detect a failure at the same instant, so the CM's view of the
	// candidate may be one keep-alive period stale and still claim
	// STABLE. A fresh probe before switching kills that race.
	confirming map[string]string

	// Stagger protocol state.
	wantReconcile bool
	wantSince     int64  // instant the pending authorization was first wanted
	awaiting      string // peer asked, awaiting response
	grantedTo     string // peer we promised not to reconcile under
	grantResp     int64  // last keep-alive answer from grantedTo
	grantTimer    runtime.Timer
	retryTimer    runtime.Timer
	// Progress-probe state for the outstanding grant: the granted peer's
	// last stabilization-progress token and reported node state, the last
	// instant either advanced, and — when the peer reports STABLE — since
	// when. A grant whose peer is alive but frozen past GrantStallWindow
	// is revoked instead of waiting out GrantTimeout.
	grantProgress    map[string]uint64
	grantState       StreamState
	grantMovedAt     int64
	grantStableSince int64
	// suspect marks peers that never answered a reconciliation request:
	// they are skipped when choosing whom to ask, and probed with
	// keep-alives until any sign of life clears them. When every peer is
	// suspect the authorization is self-granted — Fig. 9 staggers
	// reconciliations to keep one replica available, but with no live
	// peer there is no availability left to preserve, and waiting for a
	// permanently-crashed peer would wedge the sole survivor in
	// UP_FAILURE forever (found by the scenario fuzzer: a permanent
	// crash of one replica plus a flap of the other starved the stream
	// for good).
	suspect map[string]bool

	// Switches counts upstream replica switches (reported in §5.1).
	Switches uint64

	// GrantWaits records, for each authorization this node obtained, how
	// long it waited from wanting the reconciliation to being granted —
	// the starvation the stall window bounds. Reported per replica so the
	// fuzzer's starvation oracle can assert the bound.
	GrantWaits []int64
	// Grant revocation counters, by cause: the granted peer went silent
	// (crashed — the pre-existing liveness probe), froze its progress
	// token while alive (partitioned data path or wedged replay), or kept
	// reporting STABLE (its ReconcileDone was lost in transit). GrantTimeouts
	// counts the 120s backstop firing — with progress probing it should
	// stay zero.
	GrantRevokedSilent  uint64
	GrantRevokedStalled uint64
	GrantRevokedDone    uint64
	GrantTimeouts       uint64
}

func newCM(n *Node, cfg CMConfig) *CM {
	cfg.normalize()
	seed := int64(0)
	for _, c := range n.cfg.ID {
		seed = seed*131 + int64(c)
	}
	cm := &CM{
		node:       n,
		cfg:        cfg,
		ups:        make(map[string]*upstreamView),
		confirming: make(map[string]string),
		suspect:    make(map[string]bool),
		rng:        rand.New(rand.NewSource(seed)),
	}
	for stream, replicas := range n.cfg.Upstreams {
		cm.ups[stream] = &upstreamView{
			stream:     stream,
			replicas:   append([]string(nil), replicas...),
			states:     make(map[string]StreamState),
			lastResp:   make(map[string]int64),
			subscribed: make(map[string]bool),
			broken:     make(map[string]bool),
		}
	}
	return cm
}

// start subscribes every input to its first replica and begins probing.
func (cm *CM) start() {
	for _, stream := range cm.node.inputOrder {
		up := cm.ups[stream]
		if up == nil || len(up.replicas) == 0 {
			continue
		}
		first := up.replicas[0]
		for _, r := range up.replicas {
			up.states[r] = StateStable
			up.lastResp[r] = cm.node.clk.Now()
		}
		cm.subscribe(stream, first, true, false)
		cm.node.inputs[stream].StartMonitoring()
	}
	cm.ticker = cm.node.clk.NewTicker(cm.cfg.KeepAlive, cm.tick)
}

func (cm *CM) stop() {
	if cm.ticker != nil {
		cm.ticker.Stop()
		cm.ticker = nil
	}
	if cm.retryTimer != nil {
		cm.retryTimer.Stop()
		cm.retryTimer = nil
	}
	if cm.grantTimer != nil {
		cm.grantTimer.Stop()
		cm.grantTimer = nil
	}
}

// reset clears all views and stagger state: crash recovery rebuilds the
// CM's knowledge from scratch.
func (cm *CM) reset() {
	cm.stop()
	for _, up := range cm.ups {
		up.states = make(map[string]StreamState)
		up.lastResp = make(map[string]int64)
		up.subscribed = make(map[string]bool)
		up.broken = make(map[string]bool)
	}
	cm.confirming = make(map[string]string)
	cm.suspect = make(map[string]bool)
	cm.wantReconcile = false
	cm.awaiting = ""
	cm.grantedTo = ""
	cm.grantProgress = nil
	cm.grantStableSince = 0
}

// tick sends keep-alive probes and times out silent replicas.
func (cm *CM) tick() {
	now := cm.node.clk.Now()
	cm.probeGrantedPeer(now)
	// Probe suspect peers in declaration order (map iteration order would
	// perturb the deterministic message schedule).
	for _, p := range cm.node.cfg.Peers {
		if cm.suspect[p] {
			cm.node.send(p, KeepAliveReq{})
		}
	}
	for _, stream := range cm.node.inputOrder {
		up := cm.ups[stream]
		if up == nil {
			continue
		}
		changed := false
		for _, r := range up.replicas {
			cm.node.send(r, KeepAliveReq{})
			if now-up.lastResp[r] > cm.cfg.KeepAliveTimeout && up.states[r] != StateFailure {
				cm.node.tracef("upstream-timeout", "%s: %s silent for %dµs", stream, r, now-up.lastResp[r])
				up.states[r] = StateFailure
				if up.subscribed[r] {
					up.broken[r] = true
				}
				changed = true
			}
		}
		// A confirmation probe that never answered is abandoned; the
		// next evaluation re-issues it if still warranted.
		delete(cm.confirming, stream)
		if changed {
			cm.evaluate(stream)
		}
	}
}

// probeGrantedPeer polices the peer this node promised to stay available
// for. A reconciliation grant is normally released by the peer's
// ReconcileDone; waiting out the long GrantTimeout when that message never
// comes would leave this node wedged in UP_FAILURE — unable to reconcile
// its own diverged state — for two simulated minutes. Three probes bound
// the wait:
//
//   - silence: a crashed or still-recovering peer answers no keep-alives,
//     so silence past the keep-alive timeout revokes the promise; its
//     stabilization died with it (a wedge the scenario fuzzer found: a
//     replica flap overlapping a source disconnect).
//   - stall: a partitioned-but-alive peer happily answers keep-alives
//     while making zero stabilization progress — its data path is blocked,
//     so the progress token carried by its KeepAliveResp never advances.
//     Liveness alone would hold the grant for the full GrantTimeout
//     (pinned in scenarios/corpus/crash-inside-partition.json).
//   - done: a peer that finished stabilizing but whose ReconcileDone was
//     eaten by a partition keeps reporting STABLE — and keeps making data
//     progress, so the stall probe never fires. Observing STABLE for a
//     whole stall window means no stabilization is running under the
//     promise.
//
// Revocation is safe in all three cases: the revoked peer never starts a
// reconciliation without a fresh grant — it learns the promise is gone
// from the next ReconcileResp{Granted: false} (or simply re-requests) —
// so two replicas never enter STABILIZATION concurrently.
func (cm *CM) probeGrantedPeer(now int64) {
	if cm.grantedTo == "" {
		return
	}
	switch {
	case now-cm.grantResp > cm.cfg.KeepAliveTimeout:
		cm.GrantRevokedSilent++
		cm.revokeGrant("granted peer %s silent for %dµs", cm.grantedTo, now-cm.grantResp)
	case now-cm.grantMovedAt > cm.cfg.GrantStallWindow:
		cm.GrantRevokedStalled++
		cm.revokeGrant("granted peer %s alive but made no stabilization progress for %dµs", cm.grantedTo, now-cm.grantMovedAt)
	case cm.grantStableSince != 0 && now-cm.grantStableSince > cm.cfg.GrantStallWindow:
		cm.GrantRevokedDone++
		cm.revokeGrant("granted peer %s reported STABLE for %dµs without ReconcileDone", cm.grantedTo, now-cm.grantStableSince)
	default:
		cm.node.send(cm.grantedTo, KeepAliveReq{})
	}
}

// revokeGrant withdraws the outstanding reconciliation promise and retries
// this node's own pending authorization, if any.
func (cm *CM) revokeGrant(format string, args ...any) {
	cm.node.tracef("grant-revoked", format, args...)
	cm.grantedTo = ""
	cm.grantProgress = nil
	if cm.grantTimer != nil {
		cm.grantTimer.Stop()
		cm.grantTimer = nil
	}
	cm.tryRequest()
}

// noteGrantProgress folds a keep-alive answer from the granted peer into
// the progress-probe state.
func (cm *CM) noteGrantProgress(resp KeepAliveResp, now int64) {
	moved := false
	if resp.Node != cm.grantState {
		cm.grantState = resp.Node
		moved = true
	}
	for stream, id := range resp.Progress {
		if id > cm.grantProgress[stream] {
			moved = true
		}
	}
	if resp.Progress != nil {
		cm.grantProgress = resp.Progress
	}
	if moved {
		cm.grantMovedAt = now
	}
	if resp.Node == StateStable {
		if cm.grantStableSince == 0 {
			cm.grantStableSince = now
		}
	} else {
		cm.grantStableSince = 0
	}
}

// onKeepAlive records a keep-alive response and re-evaluates switching.
func (cm *CM) onKeepAlive(from string, resp KeepAliveResp) {
	now := cm.node.clk.Now()
	if from == cm.grantedTo {
		cm.grantResp = now
		cm.noteGrantProgress(resp, now)
	}
	if cm.suspect[from] {
		cm.node.tracef("unsuspect", "%s answered a keep-alive", from)
		delete(cm.suspect, from)
		cm.tryRequest()
	}
	for _, stream := range cm.node.inputOrder {
		up := cm.ups[stream]
		if up == nil || !contains(up.replicas, from) {
			continue
		}
		up.lastResp[from] = now
		st := resp.Node
		if s, ok := resp.Streams[stream]; ok {
			st = s
		}
		changed := up.states[from] != st
		up.states[from] = st
		if cm.confirming[stream] == from {
			// The probed switch candidate answered with a fresh
			// state: act on it (evaluate consumes the entry when
			// it performs the confirmed switch).
			cm.evaluate(stream)
			continue
		}
		if changed {
			cm.evaluate(stream)
		}
	}
}

// State returns the CM's view of a replica's state for a stream.
func (cm *CM) State(stream, replica string) StreamState {
	up := cm.ups[stream]
	if up == nil {
		return StateFailure
	}
	return up.states[replica]
}

// evaluate applies the condition-action rules of Table II to one input
// stream, refined with §4.4.3's dual connection: when the current upstream
// enters STABILIZATION it is kept for corrections while a replica in
// UP_FAILURE supplies fresh tentative data.
func (cm *CM) evaluate(stream string) {
	up := cm.ups[stream]
	im := cm.node.inputs[stream]
	if up == nil || im == nil {
		return
	}
	cur := im.Live()
	curState := StateFailure
	if cur != "" {
		curState = up.states[cur]
	}
	if curState == StateStable {
		// Table II row 1: do nothing — unless the connection broke
		// while we were subscribed (network partition, crash restart):
		// everything sent in the gap was lost, so resubscribe and let
		// the upstream replay from our last stable tuple (Fig. 8).
		if up.broken[cur] {
			cm.subscribe(stream, cur, false, false)
			im.SetConnections(cur, im.Correcting(), true)
		}
		return
	}
	pick := func(want StreamState) string {
		for _, r := range up.replicas {
			if r != cur && up.states[r] == want {
				return r
			}
		}
		return ""
	}
	// Pick the Table II action: a STABLE replica is always preferred;
	// otherwise a current FAILURE/STABILIZATION falls back to a replica
	// in UP_FAILURE for fresh (tail-only) tentative data, and a FAILURE
	// falls back further to a STABILIZATION replica, which at least
	// starts correcting the stream.
	var target string
	tailOnly := false
	if r := pick(StateStable); r != "" {
		target = r
	} else if curState == StateFailure || curState == StateStabilization {
		if r := pick(StateUpFailure); r != "" {
			target, tailOnly = r, true
		} else if curState == StateFailure {
			target = pick(StateStabilization)
		}
	}
	if target == "" {
		return
	}
	// Confirm the candidate's state with a fresh probe before acting:
	// both replicas of an upstream typically see a failure at the same
	// instant, so the cached view of the candidate may be a keep-alive
	// period stale. The probe response re-runs this evaluation with
	// fresh knowledge.
	if cm.confirming[stream] != target {
		cm.confirming[stream] = target
		cm.node.send(target, KeepAliveReq{})
		return
	}
	delete(cm.confirming, stream)
	corr := ""
	if curState == StateStabilization && cur != "" {
		// Keep the stabilizing upstream for the correction stream it
		// is already sending (§4.4.3 dual connection).
		corr = cur
	} else if cur != "" {
		cm.unsubscribe(stream, cur)
	}
	cm.switchLive(stream, target, corr, tailOnly)
}

// switchLive subscribes to a new live upstream for the stream. Every fresh
// subscription is "seamless": the undo at the head of its replay (Fig. 8)
// patches the arrival log without flipping the connection into correcting
// mode, because the new upstream continues with live data right after.
func (cm *CM) switchLive(stream, live, corr string, tailOnly bool) {
	im := cm.node.inputs[stream]
	if im.Live() == live && im.Correcting() == corr {
		return
	}
	cm.node.tracef("switch", "%s: live %s -> %s (corr %q, tail-only %v)", stream, im.Live(), live, corr, tailOnly)
	cm.Switches++
	im.SetConnections(live, corr, true)
	cm.subscribe(stream, live, false, tailOnly)
}

func (cm *CM) subscribe(stream, to string, initial, tailOnly bool) {
	up := cm.ups[stream]
	im := cm.node.inputs[stream]
	up.subscribed[to] = true
	delete(up.broken, to)
	// The previous connection's batches may still be in flight with stale
	// sequence numbers; only the fresh subscription's seq-1 replay counts
	// from here (a stale batch treated as a gap would trigger a second
	// resubscription and a duplicated replay).
	im.ExpectFresh(to)
	if initial {
		im.SetConnections(to, "", true)
	}
	cm.node.tracef("subscribe", "%s to %s (from-id %d, seen-tentative %v, tail-only %v)",
		stream, to, im.LastStableID(), im.SeenTentative(), tailOnly)
	cm.node.send(to, SubscribeMsg{
		Stream:        stream,
		FromID:        im.LastStableID(),
		SeenTentative: im.SeenTentative(),
		TailOnly:      tailOnly,
	})
}

func (cm *CM) unsubscribe(stream, from string) {
	up := cm.ups[stream]
	if up == nil || !up.subscribed[from] {
		return
	}
	delete(up.subscribed, from)
	cm.node.tracef("unsubscribe", "%s from %s", stream, from)
	cm.node.send(from, UnsubscribeMsg{Stream: stream})
}

// onInputStalled handles a stall declared while this CM still believes
// the live upstream is healthy AND the live connection has never
// delivered a single batch: the subscription itself must be broken — the
// SubscribeMsg reached a crashed or still-recovering endpoint and was
// silently dropped (the fuzzer found a replica whose restart raced its
// upstream's restart this way: both came back healthy, but the
// subscription between them was gone and the downstream waited forever).
// Mark the connection broken and re-evaluate: a STABLE upstream is
// resubscribed with replay from the last stable tuple; anything else
// switches per Table II. A stall on a connection that was delivering
// (boundary stall, source disconnect) is a real upstream condition and is
// left to the normal failure machinery — resubscribing there would
// re-replay content mid-stream.
func (cm *CM) onInputStalled(stream string) {
	up := cm.ups[stream]
	im := cm.node.inputs[stream]
	if up == nil || im == nil || im.Live() == "" {
		return
	}
	if up.states[im.Live()] == StateStable && !im.Delivering(im.Live()) {
		up.broken[im.Live()] = true
		cm.evaluate(stream)
	}
}

// onConnBroken handles a sequence gap detected by an Input Manager: the
// connection lost messages (partition, upstream restart); resubscribe so
// the upstream replays everything after our last stable tuple (Fig. 8).
func (cm *CM) onConnBroken(stream, from string) {
	up := cm.ups[stream]
	im := cm.node.inputs[stream]
	if up == nil || im == nil {
		return
	}
	if from != im.live && from != im.corr {
		return
	}
	cm.subscribe(stream, from, false, false)
	if from == im.live {
		im.SetConnections(from, im.corr, true)
	}
}

// consolidate drops subscriptions a healed input no longer needs (the old
// tentative feed after a REC_DONE promoted the corrected stream to live).
func (cm *CM) consolidate(stream string) {
	up := cm.ups[stream]
	im := cm.node.inputs[stream]
	if up == nil || im == nil {
		return
	}
	keep := map[string]bool{im.Live(): true}
	if c := im.Correcting(); c != "" {
		keep[c] = true
	}
	var drop []string
	for ep := range up.subscribed {
		if !keep[ep] {
			drop = append(drop, ep)
		}
	}
	sort.Strings(drop)
	for _, ep := range drop {
		cm.unsubscribe(stream, ep)
	}
}

// ---- Inter-replica stagger protocol (Fig. 9) ----

// requestReconcileAuth asks a randomly chosen replica of this node for
// permission to enter STABILIZATION. Without staggering (or peers) the
// request is self-granted.
func (cm *CM) requestReconcileAuth() {
	if !cm.wantReconcile {
		cm.wantSince = cm.node.clk.Now()
	}
	cm.wantReconcile = true
	cm.tryRequest()
}

// recordGrantWait closes the want→grant interval of the authorization that
// was just obtained.
func (cm *CM) recordGrantWait() {
	cm.GrantWaits = append(cm.GrantWaits, cm.node.clk.Now()-cm.wantSince)
}

// GrantWaitsAt returns every completed want→grant wait plus, when an
// authorization is still wanted at now, the in-flight wait — so a replica
// starving for a grant at the end of a run reports the starvation instead
// of hiding it.
func (cm *CM) GrantWaitsAt(now int64) []int64 {
	waits := cm.GrantWaits
	if cm.wantReconcile {
		waits = append(append([]int64(nil), waits...), now-cm.wantSince)
	}
	return waits
}

func (cm *CM) tryRequest() {
	if !cm.wantReconcile || cm.awaiting != "" {
		return
	}
	if !cm.cfg.Stagger || len(cm.node.cfg.Peers) == 0 {
		cm.node.tracef("reconcile-self-grant", "no stagger or no peers")
		cm.wantReconcile = false
		cm.recordGrantWait()
		cm.node.onReconcileGranted()
		return
	}
	if cm.grantedTo != "" {
		// We promised a peer we would stay available; retry later.
		cm.scheduleRetry()
		return
	}
	live := make([]string, 0, len(cm.node.cfg.Peers))
	for _, p := range cm.node.cfg.Peers {
		if !cm.suspect[p] {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		// Every peer is unreachable: nobody is available for the
		// stagger to protect, so reconcile now (suspects keep being
		// probed; a returning peer is simply staggered against next
		// time).
		cm.node.tracef("reconcile-self-grant", "all %d peers suspect", len(cm.node.cfg.Peers))
		cm.wantReconcile = false
		cm.recordGrantWait()
		cm.node.onReconcileGranted()
		return
	}
	peer := live[cm.rng.Intn(len(live))]
	cm.awaiting = peer
	cm.node.tracef("reconcile-ask", "%s", peer)
	cm.node.send(peer, ReconcileReq{})
	// A silent peer (crashed, partitioned) must not wedge us: mark it
	// suspect and move on; keep-alive probes clear it when it answers.
	cm.node.clk.After(cm.cfg.RetryInterval*2, func() {
		if cm.awaiting == peer {
			cm.node.tracef("suspect", "%s never answered the reconcile request", peer)
			cm.awaiting = ""
			cm.suspect[peer] = true
			cm.scheduleRetry()
		}
	})
}

func (cm *CM) scheduleRetry() {
	if cm.retryTimer != nil {
		return
	}
	cm.retryTimer = cm.node.clk.After(cm.cfg.RetryInterval, func() {
		cm.retryTimer = nil
		cm.tryRequest()
	})
}

// cancelWant abandons a pending reconciliation request (a new failure
// arrived before the grant).
func (cm *CM) cancelWant() {
	cm.wantReconcile = false
}

// onReconcileReq applies the Fig. 9 acceptance rule: grant unless already
// in STABILIZATION, already promised to another peer, or this node needs to
// reconcile too and has the lower identifier (tie-break).
func (cm *CM) onReconcileReq(from string) {
	delete(cm.suspect, from)
	reject := cm.node.state == StateStabilization ||
		(cm.grantedTo != "" && cm.grantedTo != from) ||
		(cm.wantReconcile && cm.node.cfg.ID < from)
	if reject {
		cm.node.tracef("reconcile-reject", "%s", from)
		cm.node.send(from, ReconcileResp{Granted: false})
		return
	}
	cm.node.tracef("reconcile-grant", "%s", from)
	now := cm.node.clk.Now()
	cm.grantedTo = from
	cm.grantResp = now
	// Progress-probe baseline: the asker is in UP_FAILURE by definition;
	// any state change or token advance from here counts as progress.
	cm.grantProgress = nil
	cm.grantState = StateUpFailure
	cm.grantMovedAt = now
	cm.grantStableSince = 0
	if cm.grantTimer != nil {
		cm.grantTimer.Stop()
	}
	// The callback compares timer identity, not just grantedTo: a stale
	// GrantTimeout callback racing a re-grant to the same peer (possible
	// on the WallClock, where a stopped timer's callback may already be
	// in flight) must not clobber the fresh timer handle or tear down the
	// fresh grant.
	var timer runtime.Timer
	timer = cm.node.clk.After(cm.cfg.GrantTimeout, func() {
		if cm.grantTimer != timer {
			return
		}
		cm.grantTimer = nil
		if cm.grantedTo == from {
			cm.GrantTimeouts++
			cm.node.tracef("grant-timeout", "%s never sent ReconcileDone", from)
			cm.grantedTo = ""
			cm.grantProgress = nil
			cm.tryRequest()
		}
	})
	cm.grantTimer = timer
	cm.node.send(from, ReconcileResp{Granted: true})
}

func (cm *CM) onReconcileResp(from string, resp ReconcileResp) {
	delete(cm.suspect, from)
	if cm.awaiting != from {
		return
	}
	cm.awaiting = ""
	if !cm.wantReconcile {
		// Conditions changed while the request was in flight; release
		// the peer's promise immediately.
		if resp.Granted {
			cm.node.send(from, ReconcileDone{})
		}
		return
	}
	if resp.Granted {
		cm.node.tracef("reconcile-granted", "by %s", from)
		cm.wantReconcile = false
		cm.recordGrantWait()
		cm.node.onReconcileGranted()
	} else {
		cm.node.tracef("reconcile-rejected", "by %s", from)
		cm.node.onReconcileRejected()
		cm.scheduleRetry()
	}
}

func (cm *CM) onReconcileDone(from string) {
	if cm.grantedTo == from {
		cm.node.tracef("reconcile-released", "by %s", from)
		cm.grantedTo = ""
		cm.grantProgress = nil
		if cm.grantTimer != nil {
			cm.grantTimer.Stop()
			cm.grantTimer = nil
		}
		cm.tryRequest()
	}
}

// finishReconcile releases the granter after this node's stabilization
// completes (or is abandoned).
func (cm *CM) finishReconcile() {
	for _, p := range cm.node.cfg.Peers {
		cm.node.send(p, ReconcileDone{})
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
