package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"borealis/internal/deploy"
	"borealis/internal/scenario"
)

// FaultModeKill translates crash faults into SIGKILL + respawn: the replica
// process dies for real and its replacement rebuilds state through §4.5
// crash recovery. FaultModeStop uses SIGSTOP/SIGCONT instead: the process
// freezes with its state intact — to its peers indistinguishable from a
// failure (silence, keep-alive timeouts) but recovering by resumption
// rather than rebuild. Both satisfy the Definition 1 audit, which compares
// against a fault-free reference.
const (
	FaultModeKill = "kill"
	FaultModeStop = "stop"
)

// Options parameterizes a boss run.
type Options struct {
	// SpecPath is the scenario file; every worker loads the same file.
	SpecPath string
	// Spec, when non-nil, skips reloading SpecPath in the boss (the
	// workers still load the file, so it must stay in place).
	Spec *scenario.Spec
	// Workers is the number of worker processes. Replicas targeted by
	// process-level faults each get a dedicated worker out of this
	// budget, so Workers must exceed the fault-target count.
	Workers int
	// Quick selects the spec's reduced duration.
	Quick bool
	// Speed is the wall clock time-scale factor for every worker and for
	// the boss's real-time fault schedule.
	Speed float64
	// FaultMode is FaultModeKill (default) or FaultModeStop.
	FaultMode string
	// SkipAudit suppresses the reference run and Definition 1 audit.
	SkipAudit bool
	// Exe is the worker executable (default: the boss's own binary).
	Exe string
	// Log receives boss progress and forwarded worker stderr/log lines
	// (default os.Stderr).
	Log io.Writer
}

// Result is a completed cluster run.
type Result struct {
	Report *scenario.Report
	// Fragments holds the raw worker reports, in partition order; nil for
	// a partition whose final incarnation was killed without respawn.
	Fragments []*scenario.WorkerReport
	WallS     float64
}

// Partition is one worker's slice of the endpoint set.
type Partition struct {
	Name  string
	Owned []string
	// Target is the fault-targeted replica this worker exists for, empty
	// for a shared worker.
	Target string
}

// Plan divides a spec's endpoints across workers: each fault-targeted
// replica is hosted alone on a dedicated worker (so a SIGKILL of that
// process is a crash of exactly that replica), everything else round-robins
// across the remaining shared workers.
func Plan(s *scenario.Spec, workers int) ([]Partition, error) {
	targets := scenario.FaultTargets(s)
	shared := workers - len(targets)
	if shared < 1 {
		return nil, fmt.Errorf("cluster: %d workers cannot host %d fault-targeted replicas plus the shared endpoints; need at least %d",
			workers, len(targets), len(targets)+1)
	}
	parts := make([]Partition, workers)
	for i := range parts {
		parts[i].Name = fmt.Sprintf("w%d", i)
	}
	targetSet := make(map[string]bool, len(targets))
	for i, t := range targets {
		parts[shared+i].Owned = []string{t}
		parts[shared+i].Target = t
		targetSet[t] = true
	}
	i := 0
	for _, ep := range scenario.Endpoints(s) {
		if targetSet[ep] {
			continue
		}
		p := &parts[i%shared]
		p.Owned = append(p.Owned, ep)
		i++
	}
	return parts, nil
}

// proc is one live worker process.
type proc struct {
	part     Partition
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	readyCh  chan string
	reportCh chan *scenario.WorkerReport
	exitCh   chan error

	mu         sync.Mutex
	listenAddr string
}

type boss struct {
	opts  Options
	spec  *scenario.Spec
	exe   string
	log   io.Writer
	parts []Partition

	mu          sync.Mutex
	procs       []*proc
	activeLinks map[string]int // outstanding blocks per directed "from to" pair
}

// Run executes a scenario as a real multi-process cluster and returns the
// merged, audited report.
func Run(opts Options) (*Result, error) {
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	switch opts.FaultMode {
	case "":
		opts.FaultMode = FaultModeKill
	case FaultModeKill, FaultModeStop:
	default:
		return nil, fmt.Errorf("cluster: unknown fault mode %q (want kill|stop)", opts.FaultMode)
	}
	spec := opts.Spec
	if spec == nil {
		var err error
		spec, err = scenario.Load(opts.SpecPath)
		if err != nil {
			return nil, err
		}
	}
	exe := opts.Exe
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return nil, err
		}
	}
	log := opts.Log
	if log == nil {
		log = os.Stderr
	}
	parts, err := Plan(spec, opts.Workers)
	if err != nil {
		return nil, err
	}
	b := &boss{
		opts:  opts,
		spec:  spec,
		exe:   exe,
		log:   log,
		parts: parts,
		procs: make([]*proc, len(parts)),
	}
	defer b.killAll()

	for i, part := range parts {
		p, err := b.spawn(part, "127.0.0.1:0", 0, false)
		if err != nil {
			return nil, err
		}
		b.procs[i] = p
	}
	routes := make(map[string]string, len(parts))
	for _, p := range b.procs {
		addr, err := awaitReady(p, 30*time.Second)
		if err != nil {
			return nil, err
		}
		for _, ep := range p.part.Owned {
			routes[ep] = addr
		}
		p.setAddr(addr)
	}
	routesLine := routesLine(b.parts, routes)
	for _, p := range b.procs {
		if _, err := fmt.Fprintf(p.stdin, "%s\nGO\n", routesLine); err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", p.part.Name, err)
		}
	}
	t0 := time.Now()
	durationUS := scenario.DurationUS(spec, opts.Quick)
	fmt.Fprintf(log, "cluster: %d workers started, running %.0fs of scenario time at speed %g (%s faults)\n",
		len(parts), float64(durationUS)/1e6, opts.Speed, opts.FaultMode)

	actions, expect := b.faultActions()
	faultsDone := make(chan error, 1)
	go func() { faultsDone <- b.runFaultSchedule(actions, t0) }()

	durWall := time.Duration(float64(durationUS)/opts.Speed) * time.Microsecond
	deadline := t0.Add(durWall + 60*time.Second)
	if err := <-faultsDone; err != nil {
		return nil, err
	}

	frags := make([]*scenario.WorkerReport, len(parts))
	for i := range parts {
		if !expect[i] {
			continue
		}
		if frags[i], err = b.current(i).awaitReport(deadline); err != nil {
			return nil, err
		}
	}
	wallS := time.Since(t0).Seconds()

	rep := scenario.MergeClusterReports(spec, opts.Quick, frags)
	if !opts.SkipAudit {
		var cli *scenario.WorkerReport
		for _, f := range frags {
			if f != nil && f.Client != nil {
				cli = f
			}
		}
		if cli == nil {
			return nil, fmt.Errorf("cluster: no worker reported the client fragment; cannot audit")
		}
		ref, err := scenario.ClusterReference(spec, opts.Quick)
		if err != nil {
			return nil, err
		}
		scenario.AuditCluster(rep, cli.StableView, ref)
	}
	return &Result{Report: rep, Fragments: frags, WallS: wallS}, nil
}

// action is one real-time fault step. A "link" action carries the LINK
// protocol lines to broadcast in line (part is -1: every worker applies
// them, so the directed block covers intra- and cross-worker pairs alike).
type action struct {
	atUS int64
	part int
	what string // "kill" | "respawn" | "stop" | "cont" | "link"
	line string
}

// faultActions translates the spec's fault timeline into real-time actions
// — crash and restart events into signals/respawns of the target replica's
// dedicated worker, block and unblock events into LINK lines (both
// directions of the pair; one broadcast per fault and instant) — and derives
// which partitions are expected to be alive, and therefore to report, at the
// end of the run. Source-level events are not the boss's: the worker hosting
// the source runs them itself. Events at or past the horizon never happen.
func (b *boss) faultActions() ([]action, []bool) {
	partOf := make(map[string]int, len(b.parts))
	for i, p := range b.parts {
		if p.Target != "" {
			partOf[p.Target] = i
		}
	}
	stop := b.opts.FaultMode == FaultModeStop
	horizonUS := scenario.DurationUS(b.spec, b.opts.Quick)
	evs := scenario.Timeline(b.spec, b.opts.Quick)
	var acts []action
	broadcast := map[[2]int]int{} // (fault, kind) → its LINK action in acts
	for i, ev := range evs {
		if ev.AtUS >= horizonUS {
			continue
		}
		var what string
		switch ev.Kind {
		case scenario.EvCrash:
			// A freeze needs its thaw: a crash whose fault carries no
			// restart of its own (the next event) is a SIGKILL either way.
			what = "kill"
			if stop && i+1 < len(evs) && evs[i+1].Fault == ev.Fault {
				what = "stop"
			}
		case scenario.EvRestart:
			what = "respawn"
			if stop {
				what = "cont"
			}
		case scenario.EvBlock, scenario.EvUnblock:
			verb := "LINK block "
			if ev.Kind == scenario.EvUnblock {
				verb = "LINK unblock "
			}
			lines := verb + ev.From + " " + ev.To + "\n" + verb + ev.To + " " + ev.From
			key := [2]int{ev.Fault, int(ev.Kind)}
			if ai, ok := broadcast[key]; ok {
				acts[ai].line += "\n" + lines
			} else {
				broadcast[key] = len(acts)
				acts = append(acts, action{atUS: ev.AtUS, part: -1, what: "link", line: lines})
			}
			continue
		default:
			continue
		}
		acts = append(acts, action{atUS: ev.AtUS, part: partOf[deploy.GroupReplicaID(ev.Node, ev.Replica)], what: what})
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].atUS < acts[j].atUS })
	expect := make([]bool, len(b.parts))
	for i := range expect {
		expect[i] = true
	}
	for _, a := range acts {
		switch a.what {
		case "kill":
			expect[a.part] = false
		case "respawn", "cont":
			expect[a.part] = true
		}
	}
	return acts, expect
}

// runFaultSchedule executes the actions at their scaled real deadlines.
func (b *boss) runFaultSchedule(acts []action, t0 time.Time) error {
	for _, a := range acts {
		at := t0.Add(time.Duration(float64(a.atUS)/b.opts.Speed) * time.Microsecond)
		time.Sleep(time.Until(at))
		if a.what == "link" {
			fmt.Fprintf(b.log, "cluster: t=%.2fs %s\n", float64(a.atUS)/1e6,
				strings.ReplaceAll(a.line, "\n", "; "))
			b.applyLinks(a.line)
			continue
		}
		p := b.current(a.part)
		switch a.what {
		case "kill":
			fmt.Fprintf(b.log, "cluster: t=%.2fs SIGKILL %s (%s)\n", float64(a.atUS)/1e6, p.part.Name, p.part.Target)
			_ = p.cmd.Process.Kill()
		case "stop":
			fmt.Fprintf(b.log, "cluster: t=%.2fs SIGSTOP %s (%s)\n", float64(a.atUS)/1e6, p.part.Name, p.part.Target)
			_ = p.cmd.Process.Signal(syscall.SIGSTOP)
		case "cont":
			fmt.Fprintf(b.log, "cluster: t=%.2fs SIGCONT %s (%s)\n", float64(a.atUS)/1e6, p.part.Name, p.part.Target)
			_ = p.cmd.Process.Signal(syscall.SIGCONT)
		case "respawn":
			fmt.Fprintf(b.log, "cluster: t=%.2fs respawn %s (%s) recovering\n", float64(a.atUS)/1e6, p.part.Name, p.part.Target)
			if err := b.respawn(a.part, a.atUS); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyLinks broadcasts LINK protocol lines to every live worker and
// mirrors the resulting block counts in activeLinks (counted like the
// workers' link tables: overlapping partitions of one pair stack), so a
// later respawn can replay the still-active blocks to the replacement
// worker. Write errors are ignored: a SIGKILLed worker's pipe is gone, and
// its replacement gets the state replayed at respawn.
func (b *boss) applyLinks(lines string) {
	b.mu.Lock()
	procs := append([]*proc(nil), b.procs...)
	if b.activeLinks == nil {
		b.activeLinks = make(map[string]int)
	}
	for _, ln := range strings.Split(lines, "\n") {
		f := strings.Fields(ln)
		if len(f) != 4 || f[0] != "LINK" {
			continue
		}
		if l := f[2] + " " + f[3]; f[1] == "block" {
			b.activeLinks[l]++
		} else if b.activeLinks[l] > 0 {
			b.activeLinks[l]--
		}
	}
	b.mu.Unlock()
	for _, p := range procs {
		if p != nil {
			_, _ = fmt.Fprintf(p.stdin, "%s\n", lines)
		}
	}
}

// blockLinesLocked renders the outstanding blocks as the sorted LINK lines
// that reinstall them on a fresh worker, one line per counted block.
// Callers hold b.mu.
func (b *boss) blockLinesLocked() []string {
	var links []string
	for l, n := range b.activeLinks {
		for ; n > 0; n-- {
			links = append(links, "LINK block "+l)
		}
	}
	sort.Strings(links)
	return links
}

// respawn replaces a killed worker: same partition, same listen address (so
// every other worker's routes stay valid), clock starting at the respawn
// instant, §4.5 recovery enabled. The replacement is handed the routes and
// any still-active link blocks before GO; every surviving worker gets the
// routes re-announced, kicking their dial backoffs so reconnection to the
// rebound address does not wait out a backoff sleep.
func (b *boss) respawn(pi int, atUS int64) error {
	old := b.current(pi)
	p, err := b.spawn(old.part, old.addr(), atUS, true)
	if err != nil {
		return err
	}
	addr, err := awaitReady(p, 15*time.Second)
	if err != nil {
		return err
	}
	p.setAddr(addr)
	routes := make(map[string]string, len(b.parts))
	b.mu.Lock()
	for _, q := range b.procs {
		for _, ep := range q.part.Owned {
			routes[ep] = q.addr()
		}
	}
	b.procs[pi] = p
	links := b.blockLinesLocked()
	others := append([]*proc(nil), b.procs...)
	b.mu.Unlock()
	rl := routesLine(b.parts, routes)
	pre := rl
	if len(links) > 0 {
		pre += "\n" + strings.Join(links, "\n")
	}
	if _, err := fmt.Fprintf(p.stdin, "%s\nGO\n", pre); err != nil {
		return fmt.Errorf("cluster: %s: %w", p.part.Name, err)
	}
	for i, q := range others {
		if i == pi || q == nil {
			continue
		}
		_, _ = fmt.Fprintf(q.stdin, "%s\n", rl)
	}
	return nil
}

// spawn starts one worker process and its stdout pump.
func (b *boss) spawn(part Partition, listen string, startUS int64, recover bool) (*proc, error) {
	args := []string{
		"worker",
		"-spec", b.opts.SpecPath,
		"-worker-name", part.Name,
		"-listen", listen,
		"-owned", strings.Join(part.Owned, ","),
		"-speed", fmt.Sprintf("%g", b.opts.Speed),
	}
	if b.opts.Quick {
		args = append(args, "-quick")
	}
	if startUS > 0 {
		args = append(args, "-start-us", fmt.Sprintf("%d", startUS))
	}
	if recover {
		args = append(args, "-recover")
	}
	cmd := exec.Command(b.exe, args...)
	cmd.Stderr = b.log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: spawning %s: %w", part.Name, err)
	}
	p := &proc{
		part:     part,
		cmd:      cmd,
		stdin:    stdin,
		readyCh:  make(chan string, 1),
		reportCh: make(chan *scenario.WorkerReport, 1),
		exitCh:   make(chan error, 1),
	}
	go p.pump(stdout, b.log)
	return p, nil
}

// pump relays the worker's stdout protocol lines; on EOF it reaps the
// process.
func (p *proc) pump(stdout io.Reader, log io.Writer) {
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "READY "):
			select {
			case p.readyCh <- strings.TrimSpace(strings.TrimPrefix(line, "READY ")):
			default:
			}
		case strings.HasPrefix(line, "REPORT "):
			var wr scenario.WorkerReport
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "REPORT ")), &wr); err != nil {
				fmt.Fprintf(log, "cluster: %s: bad report: %v\n", p.part.Name, err)
				continue
			}
			select {
			case p.reportCh <- &wr:
			default:
			}
		default:
			fmt.Fprintf(log, "[%s] %s\n", p.part.Name, line)
		}
	}
	p.exitCh <- p.cmd.Wait()
}

// addr bookkeeping: the listen address is learned from READY after spawn
// and read by respawn/routes.
func (p *proc) addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.listenAddr
}

func (p *proc) setAddr(addr string) {
	p.mu.Lock()
	p.listenAddr = addr
	p.mu.Unlock()
}

func (b *boss) current(pi int) *proc {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.procs[pi]
}

func (b *boss) killAll() {
	b.mu.Lock()
	procs := append([]*proc(nil), b.procs...)
	b.mu.Unlock()
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Signal(syscall.SIGCONT)
			_ = p.cmd.Process.Kill()
		}
	}
}

// awaitReady waits for the worker's READY line.
func awaitReady(p *proc, timeout time.Duration) (string, error) {
	select {
	case addr := <-p.readyCh:
		return addr, nil
	case err := <-p.exitCh:
		return "", fmt.Errorf("cluster: %s exited before READY: %v", p.part.Name, err)
	case <-time.After(timeout):
		return "", fmt.Errorf("cluster: %s not READY after %s", p.part.Name, timeout)
	}
}

// awaitReport waits for the worker's REPORT fragment. pump sends the report
// before it sends the exit, so a worker that reported and exited cleanly
// while the boss was still collecting an earlier one has both channels
// ready and select picks either: an exit counts as a missing report only
// once the report channel is empty too.
func (p *proc) awaitReport(deadline time.Time) (*scenario.WorkerReport, error) {
	select {
	case wr := <-p.reportCh:
		return wr, nil
	case err := <-p.exitCh:
		select {
		case wr := <-p.reportCh:
			return wr, nil
		default:
			return nil, fmt.Errorf("cluster: %s exited without a report: %v", p.part.Name, err)
		}
	case <-time.After(time.Until(deadline)):
		return nil, fmt.Errorf("cluster: %s produced no report before the deadline", p.part.Name)
	}
}

// routesLine renders the full endpoint→address map as one ROUTES line.
func routesLine(parts []Partition, routes map[string]string) string {
	pairs := make([]string, 0, len(routes))
	for _, part := range parts {
		for _, ep := range part.Owned {
			if addr, ok := routes[ep]; ok {
				pairs = append(pairs, ep+"="+addr)
			}
		}
	}
	return "ROUTES " + strings.Join(pairs, ",")
}
