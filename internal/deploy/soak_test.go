package deploy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"borealis/internal/node"
	"borealis/internal/scenario"
)

// TestRandomFaultSoak drives a replicated chain through randomized fault
// schedules — source disconnects, boundary stalls, node crashes with
// restarts, and network partitions — and checks the DPC guarantees after
// every run: the system returns to STABLE and the client's corrected stream
// matches a failure-free reference. Seeded and fully deterministic.
func TestRandomFaultSoak(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSoak(t, seed)
		})
	}
}

func runSoak(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const (
		horizon  = 40 * sec
		settle   = 30 * sec // extra time for any late reconciliations
		sources  = 3
		replicas = 2
	)
	depth := 1 + rng.Intn(3)
	s := chain(depth, float64((horizon+settle)/sec))
	s.Sources[0].Rate = 300 + float64(rng.Intn(3))*150

	// 2-4 fault events, all healing well before the horizon.
	events := 2 + rng.Intn(3)
	for i := 0; i < events; i++ {
		at := float64(5 + rng.Intn(15))
		dur := float64(2 + rng.Intn(6))
		switch rng.Intn(4) {
		case 0:
			s.Faults = append(s.Faults, disconnect(fmt.Sprintf("s%d", 1+rng.Intn(sources)), at, dur))
		case 1:
			s.Faults = append(s.Faults, stall(fmt.Sprintf("s%d", 1+rng.Intn(sources)), at, dur))
		case 2:
			level := 1 + rng.Intn(depth)
			replica := rng.Intn(replicas)
			s.Faults = append(s.Faults, scenario.FaultSpec{
				Kind: "crash", Node: fmt.Sprintf("n%d", level), Replica: replica, AtS: at, DurationS: dur,
			})
		case 3:
			// One replica of a level cut off from everything upstream:
			// the previous level's replicas, or source s1 at level 1.
			level := 1 + rng.Intn(depth)
			to := "s1"
			if level > 1 {
				to = fmt.Sprintf("n%d", level-1)
			}
			from := fmt.Sprintf("n%d/%d", level, rng.Intn(replicas))
			s.Faults = append(s.Faults, scenario.FaultSpec{Kind: "partition", From: from, To: to, AtS: at, DurationS: dur})
		}
	}
	dep := build(t, s)
	dep.Start()
	dep.RunFor(horizon)
	dep.RunFor(settle)

	// Every surviving node must be stable again.
	for li, row := range dep.Nodes {
		for _, n := range row {
			if n.Down() {
				continue
			}
			if n.State() != node.StateStable {
				t.Fatalf("seed %d: level %d %s stuck in %v (failed inputs %v)",
					seed, li+1, n.ID(), n.State(), n.FailedInputs())
			}
		}
	}
	// The corrected stream must match a failure-free run.
	audit := dep.Client.VerifyEventualConsistency(runClean(t, s))
	if !audit.OK {
		t.Fatalf("seed %d: consistency audit failed: %s", seed, audit.Reason)
	}
	if audit.Compared == 0 {
		t.Fatalf("seed %d: audit compared nothing", seed)
	}
}
