// Network monitoring — the paper's first motivating application (§1).
//
// Four network monitors stream connection records tagged with a suspicion
// score. A replicated processing node filters the suspicious records and
// counts them per monitor over one-second windows, producing an alert
// stream. When a network partition cuts one monitor off, DPC keeps the
// alert stream flowing within the availability bound — alerts computed from
// partial data arrive marked TENTATIVE ("continuing to process data from
// the remaining nodes can help detect at least a subset of all anomalous
// conditions"). Once the partition heals, the monitors' persistent logs
// replay, the node reconciles via checkpoint/redo, and the administrator
// eventually sees the complete, corrected list of alerts.
//
// This example assembles the deployment from the low-level public API —
// custom diagram, explicit replicas, explicit client — on a Runtime, so
// switching the last line from NewSimRuntime to NewRealtimeRuntime runs
// the identical system paced against the wall clock (docs/RUNTIME.md).
//
// Run: go run ./examples/netmon
package main

import (
	"fmt"
	"log"
	"os"

	"borealis"
)

const (
	monitors  = 4
	rate      = 200.0 // records/second per monitor
	threshold = 70    // suspicion score that triggers an alert
	window    = borealis.Second
	bound     = 2 * borealis.Second // availability bound D
)

// alertDiagram builds: monitors → SUnion → Filter(score>threshold) →
// Aggregate(count per monitor, 1s tumbling) → SOutput("alerts").
func alertDiagram() (*borealis.Diagram, error) {
	b := borealis.NewDiagramBuilder()
	b.Add(borealis.NewSUnion("merge", borealis.SUnionConfig{
		Ports:      monitors,
		BucketSize: 100 * borealis.Millisecond,
		Delay:      bound,
	}))
	b.Add(borealis.NewFilter("suspicious", func(t borealis.Tuple) bool {
		return t.Field(1) > threshold // Data = [monitorID, score]
	}))
	b.Add(borealis.NewAggregate("per-monitor", borealis.AggregateConfig{
		Size:       window,
		Fn:         borealis.AggCount,
		ValueField: 1,
		GroupField: 0, // group by monitor id
	}))
	b.Add(borealis.NewSOutput("out"))
	b.Connect("merge", "suspicious", 0)
	b.Connect("suspicious", "per-monitor", 0)
	b.Connect("per-monitor", "out", 0)
	for i := 0; i < monitors; i++ {
		b.Input(fmt.Sprintf("mon%d", i+1), "merge", i)
	}
	b.Output("alerts", "out")
	return b.Build()
}

func main() {
	rt := borealis.NewSimRuntime() // NewRealtimeRuntime(100) runs it live
	clk := rt.Clock()
	net := borealis.NewNetOn(clk)

	// Monitors: score = a deterministic pseudo-random function of the
	// sequence number, so every run (and every replica) agrees.
	upstreams := map[string][]string{}
	for i := 0; i < monitors; i++ {
		id := fmt.Sprintf("monsrc%d", i+1)
		monID := int64(i + 1)
		src := borealis.NewSourceOn(clk, net, borealis.SourceConfig{
			ID:     id,
			Stream: fmt.Sprintf("mon%d", i+1),
			Rate:   rate,
			Payload: func(seq uint64) []int64 {
				score := int64(seq*2654435761) % 100
				if score < 0 {
					score = -score
				}
				return []int64{monID, score}
			},
		})
		upstreams[src.Stream()] = []string{id}
		defer src.Stop()
		src.Start()
	}

	// Replica pair.
	for _, id := range []string{"nodeA", "nodeB"} {
		d, err := alertDiagram()
		if err != nil {
			log.Fatal(err)
		}
		peer := "nodeB"
		if id == "nodeB" {
			peer = "nodeA"
		}
		n, err := borealis.NewNodeOn(clk, net, d, borealis.NodeConfig{
			ID:                  id,
			Peers:               []string{peer},
			Upstreams:           upstreams,
			Downstreams:         map[string][]string{"alerts": {"admin"}},
			FailurePolicy:       borealis.PolicyProcess,
			StabilizationPolicy: borealis.PolicyProcess,
		})
		if err != nil {
			log.Fatal(err)
		}
		n.Start()
	}

	admin, err := borealis.NewClientOn(clk, net, borealis.ClientConfig{
		ID:        "admin",
		Stream:    "alerts",
		Upstreams: []string{"nodeA", "nodeB"},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Watch the alert stream live: count tentative alerts as they fire.
	tentativeAlerts := 0
	admin.OnDeliver(func(d borealis.Delivery) {
		if d.Tuple.Type == borealis.Tentative {
			tentativeAlerts++
		}
	})
	admin.Start()

	// Partition monitor 2 away from both replicas between t=8s and t=20s.
	clk.At(8*borealis.Second, func() {
		net.PartitionGroups([]string{"monsrc2"}, []string{"nodeA", "nodeB"})
	})
	clk.At(20*borealis.Second, func() {
		net.HealGroups([]string{"monsrc2"}, []string{"nodeA", "nodeB"})
	})

	rt.RunFor(60 * borealis.Second)

	st := admin.Stats()
	fmt.Println("Network monitoring under a 12s monitor partition")
	fmt.Printf("  alert windows delivered:   %d\n", st.NewTuples)
	fmt.Printf("  tentative alerts:          %d (partial data during the partition)\n", st.Tentative)
	fmt.Printf("  correction sequences:      %d (undo + corrected alerts)\n", st.Undos)
	fmt.Printf("  max added alert latency:   %.2fs (bound %.2fs)\n",
		float64(st.MaxLatency)/1e6, float64(bound)/1e6)
	fmt.Printf("  stable duplicate alerts:   %d (must be 0)\n", st.StableDuplicates)

	// The final stable alert stream contains every monitor's counts —
	// including monitor 2's records that were unavailable during the
	// partition and replayed afterwards.
	perMonitor := map[int64]int{}
	for _, t := range admin.StableView() {
		perMonitor[t.Field(0)]++
	}
	fmt.Println("  stable alert windows per monitor (complete after healing):")
	for i := int64(1); i <= monitors; i++ {
		fmt.Printf("    monitor %d: %d windows\n", i, perMonitor[i])
	}
	fmt.Printf("  (live tap saw %d tentative alerts as they fired)\n", tentativeAlerts)
	if st.StableDuplicates != 0 {
		os.Exit(1)
	}
}
