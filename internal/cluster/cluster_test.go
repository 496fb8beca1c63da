package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"borealis/internal/scenario"
)

// testSpec is a small source → replicated node → client chain. With a
// crash fault on n1's primary when faulted is true.
func testSpec(faulted bool) *scenario.Spec {
	two := 2
	s := &scenario.Spec{
		Name:              "cluster-test",
		Seed:              3,
		DurationS:         3,
		VerifyConsistency: true,
		Sources:           []scenario.SourceSpec{{Name: "s", Rate: 100}},
		Nodes:             []scenario.NodeSpec{{Name: "n1", Inputs: []string{"s"}, Replicas: &two}},
		Client:            scenario.ClientSpec{Input: "n1", DelayMS: 50},
	}
	s.Defaults.DelayS = 1
	s.Defaults.Replicas = 1
	if faulted {
		s.Faults = []scenario.FaultSpec{{Kind: "crash", Node: "n1", Replica: 0, AtS: 1, DurationS: 1}}
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func TestPlanDedicatesFaultTargets(t *testing.T) {
	s := testSpec(true)
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(parts[1].Owned, ","); got != "n1a" || parts[1].Target != "n1a" {
		t.Fatalf("w1 should host exactly the fault target n1a, got owned=%q target=%q", got, parts[1].Target)
	}
	if got := strings.Join(parts[0].Owned, ","); got != "s,n1b,client" {
		t.Fatalf("w0 should host the rest in spec order, got %q", got)
	}
	if _, err := Plan(s, 1); err == nil {
		t.Fatal("one worker cannot host a fault target plus the rest; Plan should refuse")
	}
}

func TestFaultActionsKillRespawn(t *testing.T) {
	s := testSpec(true)
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := &boss{opts: Options{FaultMode: FaultModeKill}, spec: s, parts: parts}
	acts, expect := b.faultActions()
	want := []action{
		{atUS: 1_000_000, part: 1, what: "kill"},
		{atUS: 2_000_000, part: 1, what: "respawn"},
	}
	if len(acts) != len(want) {
		t.Fatalf("got %d actions, want %d: %+v", len(acts), len(want), acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("action %d: got %+v want %+v", i, acts[i], want[i])
		}
	}
	if !expect[0] || !expect[1] {
		t.Fatalf("both partitions end alive and must report, got %v", expect)
	}

	b.opts.FaultMode = FaultModeStop
	acts, _ = b.faultActions()
	if acts[0].what != "stop" || acts[1].what != "cont" {
		t.Fatalf("stop mode should translate crash to stop/cont, got %+v", acts)
	}
}

// TestFaultActionsPartition checks the boss's translation of a spec
// partition fault into timed LINK broadcasts: every (from,to) endpoint pair
// expanded, both directions blocked at the fault instant and unblocked at
// the heal.
func TestFaultActionsPartition(t *testing.T) {
	s := testSpec(false)
	s.Faults = []scenario.FaultSpec{{Kind: "partition", From: "s", To: "n1", AtS: 1, DurationS: 1}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := &boss{opts: Options{FaultMode: FaultModeKill}, spec: s, parts: parts}
	acts, expect := b.faultActions()
	want := []action{
		{atUS: 1_000_000, part: -1, what: "link", line: "LINK block s n1a\nLINK block n1a s\nLINK block s n1b\nLINK block n1b s"},
		{atUS: 2_000_000, part: -1, what: "link", line: "LINK unblock s n1a\nLINK unblock n1a s\nLINK unblock s n1b\nLINK unblock n1b s"},
	}
	if len(acts) != len(want) {
		t.Fatalf("got %d actions, want %d: %+v", len(acts), len(want), acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("action %d:\n got %+v\nwant %+v", i, acts[i], want[i])
		}
	}
	if !expect[0] || !expect[1] {
		t.Fatalf("link faults kill no workers; both must report, got %v", expect)
	}
}

// TestFaultActionsFollowTimeline: for the curated partition-overlaps-crash
// spec the boss's kill/respawn (stop/cont) and LINK instants are exactly the
// timeline's crash/restart and block/unblock instants, in both fault modes.
func TestFaultActionsFollowTimeline(t *testing.T) {
	s, err := scenario.Load("../../scenarios/cluster-partition.json")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		atUS int64
		what string
	}
	byTime := func(a, b step) int { return int(a.atUS - b.atUS) }
	for _, mode := range []string{FaultModeKill, FaultModeStop} {
		down, up := "kill", "respawn"
		if mode == FaultModeStop {
			down, up = "stop", "cont"
		}
		var want []step
		for _, ev := range scenario.Timeline(s, false) {
			switch ev.Kind {
			case scenario.EvCrash:
				want = append(want, step{ev.AtUS, down})
			case scenario.EvRestart:
				want = append(want, step{ev.AtUS, up})
			case scenario.EvBlock:
				want = append(want, step{ev.AtUS, "LINK block " + ev.From + " " + ev.To})
			case scenario.EvUnblock:
				want = append(want, step{ev.AtUS, "LINK unblock " + ev.From + " " + ev.To})
			}
		}
		slices.SortStableFunc(want, byTime)
		acts, _ := (&boss{opts: Options{FaultMode: mode}, spec: s, parts: parts}).faultActions()
		var got []step
		for _, a := range acts {
			what := a.what
			if what == "link" {
				// The spec's partition is one endpoint pair: the broadcast's
				// first line is the event's direction, the second its reverse.
				what, _, _ = strings.Cut(a.line, "\n")
			}
			got = append(got, step{a.atUS, what})
		}
		if len(want) != 4 || !slices.Equal(got, want) {
			t.Errorf("%s mode: boss acts %v, timeline says %v", mode, got, want)
		}
	}
}

// TestAwaitReportPrefersReportOverExit: a worker that printed REPORT and
// exited cleanly before the boss got to it has both channels ready. The
// report must win every time — select alone picks at random, which lost
// about every second cluster-partition run its w1 fragment.
func TestAwaitReportPrefersReportOverExit(t *testing.T) {
	for i := 0; i < 200; i++ {
		p := &proc{
			part:     Partition{Name: "w1"},
			reportCh: make(chan *scenario.WorkerReport, 1),
			exitCh:   make(chan error, 1),
		}
		p.reportCh <- &scenario.WorkerReport{Worker: "w1"}
		p.exitCh <- nil
		wr, err := p.awaitReport(time.Now().Add(time.Second))
		if err != nil || wr == nil || wr.Worker != "w1" {
			t.Fatalf("try %d: got report %v, err %v", i, wr, err)
		}
	}
	p := &proc{part: Partition{Name: "w1"}, reportCh: make(chan *scenario.WorkerReport, 1), exitCh: make(chan error, 1)}
	p.exitCh <- nil
	if _, err := p.awaitReport(time.Now().Add(time.Second)); err == nil {
		t.Fatal("an exit with no report pending must still be an error")
	}
}

// TestTwoWorkerConsistency runs a real two-worker cluster in-process: two
// RunWorker instances on goroutines (each with its own wall clock and TCP
// transport on localhost) and an inline boss speaking the stdio protocol
// over pipes. The merged report must pass the Definition 1 audit against
// the virtual-clock reference run.
func TestTwoWorkerConsistency(t *testing.T) {
	s := testSpec(false)
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}

	type end struct {
		in   *io.PipeWriter
		out  *bufio.Scanner
		done chan error
	}
	ends := make([]end, len(parts))
	for i, part := range parts {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		cfg := WorkerConfig{
			Spec:   s,
			Name:   part.Name,
			Listen: "127.0.0.1:0",
			Owned:  part.Owned,
			Speed:  50,
		}
		done := make(chan error, 1)
		go func() {
			err := RunWorker(cfg, inR, outW)
			outW.CloseWithError(err)
			done <- err
		}()
		sc := bufio.NewScanner(outR)
		sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
		ends[i] = end{in: inW, out: sc, done: done}
	}

	readLine := func(i int, prefix string) string {
		e := &ends[i]
		for e.out.Scan() {
			if line := e.out.Text(); strings.HasPrefix(line, prefix) {
				return strings.TrimPrefix(line, prefix)
			}
		}
		t.Fatalf("worker %d: stream ended before %q line: %v", i, prefix, e.out.Err())
		return ""
	}

	routes := make([]string, 0, len(parts))
	for i, part := range parts {
		addr := strings.TrimSpace(readLine(i, "READY "))
		for _, ep := range part.Owned {
			routes = append(routes, ep+"="+addr)
		}
	}
	for i := range parts {
		fmt.Fprintf(ends[i].in, "ROUTES %s\nGO\n", strings.Join(routes, ","))
	}

	frags := make([]*scenario.WorkerReport, len(parts))
	for i := range parts {
		var wr scenario.WorkerReport
		if err := json.Unmarshal([]byte(readLine(i, "REPORT ")), &wr); err != nil {
			t.Fatalf("worker %d: bad report: %v", i, err)
		}
		frags[i] = &wr
		if err := <-ends[i].done; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	rep := scenario.MergeClusterReports(s, false, frags)
	var cli *scenario.WorkerReport
	for _, f := range frags {
		if f.Client != nil {
			cli = f
		}
	}
	if cli == nil {
		t.Fatal("no fragment carries the client")
	}
	ref, err := scenario.ClusterReference(s, false)
	if err != nil {
		t.Fatal(err)
	}
	scenario.AuditCluster(rep, cli.StableView, ref)
	if rep.Consistency == nil || !rep.Consistency.OK {
		t.Fatalf("Definition 1 audit failed: %+v", rep.Consistency)
	}
	if rep.Consistency.Compared == 0 {
		t.Fatal("audit compared zero stable tuples — the cluster moved no data")
	}
	if rep.Client.NewTuples == 0 {
		t.Fatalf("merged report lost the client fragment: %+v", rep.Client)
	}
}

// TestTwoWorkerPartitionHeal runs a real two-worker cluster in-process with
// a timed link partition: an inline boss broadcasts the LINK block lines
// cutting one source off one replica mid-run and unblocks them later, like
// the real boss translating a spec partition fault. The victim replica must
// go through §4.5 reconciliation after the heal, real frames must have died
// on the blocked links, and the merged report must still pass the
// Definition 1 audit.
func TestTwoWorkerPartitionHeal(t *testing.T) {
	const speed = 25
	two := 2
	s := &scenario.Spec{
		Name:              "cluster-partition-test",
		Seed:              11,
		DurationS:         8,
		VerifyConsistency: true,
		Sources: []scenario.SourceSpec{
			{Name: "s1", Rate: 100},
			{Name: "s2", Rate: 100},
		},
		Nodes:  []scenario.NodeSpec{{Name: "n1", Inputs: []string{"s1", "s2"}, Replicas: &two}},
		Client: scenario.ClientSpec{Input: "n1", DelayMS: 50},
	}
	s.Defaults.DelayS = 1
	s.Defaults.Replicas = 1
	// The partition rides in the spec (so reference and validation see it);
	// the inline boss below broadcasts the LINK lines boss.faultActions
	// translates it into.
	s.Faults = []scenario.FaultSpec{{Kind: "partition", From: "s2", To: "n1/0", AtS: 2, DurationS: 3}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	parts, err := Plan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin puts s2 and n1a on different workers: the blocked link
	// crosses a real socket.
	cross := false
	for _, p := range parts {
		owns := strings.Join(p.Owned, ",")
		if strings.Contains(owns, "s2") != strings.Contains(owns, "n1a") {
			cross = true
		}
	}
	if !cross {
		t.Fatalf("partition plan hosts s2 and n1a together; test would not cross a socket: %+v", parts)
	}
	acts, _ := (&boss{spec: s, parts: parts}).faultActions()
	if len(acts) != 2 {
		t.Fatalf("one partition fault should yield a block and an unblock broadcast, got %+v", acts)
	}
	block, unblock := acts[0].line, acts[1].line

	type end struct {
		in   *io.PipeWriter
		out  *bufio.Scanner
		done chan error
	}
	ends := make([]end, len(parts))
	for i, part := range parts {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		cfg := WorkerConfig{
			Spec:   s,
			Name:   part.Name,
			Listen: "127.0.0.1:0",
			Owned:  part.Owned,
			Speed:  speed,
		}
		done := make(chan error, 1)
		go func() {
			err := RunWorker(cfg, inR, outW)
			outW.CloseWithError(err)
			done <- err
		}()
		sc := bufio.NewScanner(outR)
		sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
		ends[i] = end{in: inW, out: sc, done: done}
	}

	readLine := func(i int, prefix string) string {
		e := &ends[i]
		for e.out.Scan() {
			if line := e.out.Text(); strings.HasPrefix(line, prefix) {
				return strings.TrimPrefix(line, prefix)
			}
		}
		t.Fatalf("worker %d: stream ended before %q line: %v", i, prefix, e.out.Err())
		return ""
	}

	routes := make([]string, 0, len(parts))
	for i, part := range parts {
		addr := strings.TrimSpace(readLine(i, "READY "))
		for _, ep := range part.Owned {
			routes = append(routes, ep+"="+addr)
		}
	}
	for i := range parts {
		fmt.Fprintf(ends[i].in, "ROUTES %s\nGO\n", strings.Join(routes, ","))
	}
	t0 := time.Now()

	// The fault schedule, at the same scaled wall deadlines the real boss
	// uses.
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		for _, step := range []struct {
			atS   float64
			lines string
		}{{2, block}, {5, unblock}} {
			time.Sleep(time.Until(t0.Add(time.Duration(step.atS / speed * float64(time.Second)))))
			for i := range ends {
				fmt.Fprintf(ends[i].in, "%s\n", step.lines)
			}
		}
	}()

	frags := make([]*scenario.WorkerReport, len(parts))
	for i := range parts {
		var wr scenario.WorkerReport
		if err := json.Unmarshal([]byte(readLine(i, "REPORT ")), &wr); err != nil {
			t.Fatalf("worker %d: bad report: %v", i, err)
		}
		frags[i] = &wr
		if err := <-ends[i].done; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	<-schedDone

	rep := scenario.MergeClusterReports(s, false, frags)
	var cli *scenario.WorkerReport
	for _, f := range frags {
		if f.Client != nil {
			cli = f
		}
	}
	if cli == nil {
		t.Fatal("no fragment carries the client")
	}
	ref, err := scenario.ClusterReference(s, false)
	if err != nil {
		t.Fatal(err)
	}
	scenario.AuditCluster(rep, cli.StableView, ref)
	if rep.Consistency == nil || !rep.Consistency.OK {
		t.Fatalf("Definition 1 audit failed: %+v", rep.Consistency)
	}
	if rep.Consistency.Compared == 0 {
		t.Fatal("audit compared zero stable tuples — the cluster moved no data")
	}
	if rep.Transport == nil || rep.Transport.DroppedLink == 0 {
		t.Fatalf("no frames died on the blocked link; the partition never bit: %+v", rep.Transport)
	}
	recs := uint64(0)
	for _, nr := range rep.Nodes {
		recs += nr.Reconciliations
	}
	if recs == 0 {
		t.Fatalf("no replica reconciled after the heal (§4.5): %+v", rep.Nodes)
	}
}

// TestBossCountsOverlappingLinkBlocks: two partition faults of one pair
// whose windows overlap reach the boss as block, block, unblock, unblock.
// Its replay mirror must count like the workers' link tables do, so a
// worker respawned between the two unblocks is handed the block the second
// fault still holds — and nothing once both have healed.
func TestBossCountsOverlappingLinkBlocks(t *testing.T) {
	b := &boss{}
	blk := "LINK block a b\nLINK block b a"
	unblk := "LINK unblock a b\nLINK unblock b a"
	b.applyLinks(blk)
	b.applyLinks(blk)
	if got := b.blockLinesLocked(); len(got) != 4 {
		t.Fatalf("replay after two blocks = %q, want each direction twice", got)
	}
	b.applyLinks(unblk)
	want := []string{"LINK block a b", "LINK block b a"}
	if got := b.blockLinesLocked(); !slices.Equal(got, want) {
		t.Fatalf("replay after block, block, unblock = %q, want %q", got, want)
	}
	b.applyLinks(unblk)
	b.applyLinks(unblk) // a stray unblock must not go negative
	if got := b.blockLinesLocked(); len(got) != 0 {
		t.Fatalf("replay after every heal = %q, want none", got)
	}
}
