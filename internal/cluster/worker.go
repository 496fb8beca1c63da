// Package cluster turns the simulator into a deployable multi-process
// system: a boss process partitions a scenario's endpoints across worker
// processes, each worker hosts its partition over the TCP transport on a
// wall clock, and the boss translates the spec's process-level fault
// schedule into real signals (SIGKILL + respawn, or SIGSTOP/SIGCONT)
// against the workers. At the end the boss merges the workers' report
// fragments and audits Definition 1 against a fault-free virtual-clock
// reference run of the same spec.
//
// Boss and worker speak a line protocol over the worker's stdio — stdout
// carries exactly three kinds of lines upward (READY, REPORT, and free-form
// log lines the boss forwards), stdin carries ROUTES, LINK, and GO
// downward. ROUTES and LINK are accepted both before GO (initial routes; a
// respawned worker's replay of still-active link blocks) and after it (a
// respawn's route re-announcement; timed partition faults):
//
//	worker → boss:  READY <listen-addr>
//	boss → worker:  ROUTES <id>=<addr>,<id>=<addr>,...
//	boss → worker:  LINK block|unblock <from> <to>
//	boss → worker:  GO
//	worker → boss:  REPORT <one-line JSON WorkerReport>
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/transport"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Spec is the full scenario; the worker builds only Owned from it.
	Spec *scenario.Spec
	// Name labels the worker's report fragment ("w0", "w1", ...).
	Name string
	// Listen is the TCP listen address. The boss's initial spawn uses
	// "127.0.0.1:0"; a respawn reuses the dead predecessor's concrete
	// address so the other workers' routes stay valid.
	Listen string
	// Owned lists the endpoint IDs this worker hosts.
	Owned []string
	// Quick selects the spec's reduced duration.
	Quick bool
	// Speed is the wall clock's time-scale factor.
	Speed float64
	// StartUS starts the clock mid-scenario: a respawned worker resumes
	// the timeline at the instant its predecessor was killed.
	StartUS int64
	// Recover brings every hosted replica up through the §4.5 crash
	// recovery path (crash + restart before the run) instead of a clean
	// start: the respawned node rejoins with empty state, rebuilds from
	// its upstream neighbors' logs, and answers no requests until caught
	// up.
	Recover bool
}

// RunWorker hosts one partition of a scenario: it binds the transport,
// reports READY, absorbs routes until GO, then drives the wall clock to the
// scenario horizon and emits the REPORT line. It is the body of the
// `borealis-sim worker` subcommand; in/out are the boss's pipe ends.
func RunWorker(cfg WorkerConfig, in io.Reader, out io.Writer) error {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	clk := runtime.NewWallAt(cfg.Speed, cfg.StartUS)

	// A respawned worker rebinds its predecessor's address moments after
	// the SIGKILL; the kernel can briefly refuse the port, so retry.
	var tr *transport.TCP
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		tr, err = transport.Listen(clk, transport.Config{ListenAddr: cfg.Listen})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: worker %s: %w", cfg.Name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer tr.Close()

	owned := make(map[string]bool, len(cfg.Owned))
	for _, id := range cfg.Owned {
		owned[id] = true
	}
	pr, err := scenario.CompilePartition(clk, tr, cfg.Spec, owned, cfg.Quick)
	if err != nil {
		return err
	}

	// Building before READY keeps the post-GO skew between workers to the
	// protocol round trip: by GO every process only has to start and run.
	fmt.Fprintf(out, "READY %s\n", tr.Addr())
	sc, err := awaitGo(tr, in)
	if err != nil {
		return err
	}
	// The boss keeps talking after GO: route re-announcements when a peer
	// respawns, LINK lines for timed partition faults. AddRoute and SetLink
	// are safe from this goroutine; it dies with the process.
	go func() {
		for sc.Scan() {
			if err := controlLine(tr, strings.TrimSpace(sc.Text())); err != nil {
				fmt.Fprintf(out, "worker %s: %v\n", cfg.Name, err)
			}
		}
	}()

	dep := pr.Deployment()
	dep.Start()
	if cfg.Recover {
		for _, row := range dep.Nodes {
			for _, n := range row {
				if n != nil {
					n.Crash()
					n.Restart()
				}
			}
		}
	}
	clk.RunUntil(pr.DurationUS())

	b, err := json.Marshal(pr.WorkerReport(cfg.Name))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "REPORT %s\n", b)
	return nil
}

// awaitGo consumes the boss's control lines until GO, returning the scanner
// so the post-GO reader can keep draining the same pipe.
func awaitGo(tr *transport.TCP, in io.Reader) (*bufio.Scanner, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "GO" {
			return sc, nil
		}
		if err := controlLine(tr, line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("cluster: boss closed the control pipe before GO")
}

// controlLine applies one boss→worker control line (ROUTES or LINK) to the
// transport.
func controlLine(tr *transport.TCP, line string) error {
	switch {
	case line == "":
	case strings.HasPrefix(line, "ROUTES "):
		for _, pair := range strings.Split(strings.TrimPrefix(line, "ROUTES "), ",") {
			id, addr, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("cluster: malformed route %q", pair)
			}
			tr.AddRoute(id, addr)
		}
	case strings.HasPrefix(line, "LINK "):
		f := strings.Fields(line)
		if len(f) != 4 || (f[1] != "block" && f[1] != "unblock") {
			return fmt.Errorf("cluster: malformed link line %q", line)
		}
		tr.SetLink(f[2], f[3], fabric.LinkState{Block: f[1] == "block"})
	default:
		return fmt.Errorf("cluster: unexpected boss line %q", line)
	}
	return nil
}
