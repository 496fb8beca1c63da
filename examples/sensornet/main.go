// Sensor-based environment monitoring — the paper's second motivating
// application (§1): pipeline-health / air-quality style monitoring where
// alerts raised on partial data dispatch technicians, so the system may
// wait a little for accuracy but must eventually tell real alerts from
// false alarms.
//
// Two sensor streams (temperature and gas concentration readings from the
// same sites) are joined per site within a time window; a site whose
// temperature and gas readings are simultaneously high raises an alert.
// When the gas sensors disconnect, alerts keep flowing as TENTATIVE (the
// join blocks, so the paper's semantics make the merged stream's available
// half flow through tentatively once the delay bound expires). After the
// sensors reconnect and replay their logs, the node reconciles and the
// final stable alert list is exactly what an uninterrupted run produces.
//
// Run: go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"os"

	"borealis"
)

const (
	sites = 8
	bound = 3 * borealis.Second
)

// sensorDiagram: temp + gas → SUnion → SJoin(site, ±500ms) →
// Filter(both high) → SOutput("alerts").
func sensorDiagram() (*borealis.Diagram, error) {
	b := borealis.NewDiagramBuilder()
	b.Add(borealis.NewSUnion("merge", borealis.SUnionConfig{
		Ports:      2,
		BucketSize: 100 * borealis.Millisecond,
		Delay:      bound,
	}))
	b.Add(borealis.NewSJoin("pair", borealis.JoinConfig{
		Window:   500 * borealis.Millisecond,
		LeftKey:  0, // site id
		RightKey: 0,
	}))
	// Joined payload: [site, temp, site, gas].
	b.Add(borealis.NewFilter("alert", func(t borealis.Tuple) bool {
		return t.Field(1) > 80 && t.Field(3) > 60
	}))
	b.Add(borealis.NewSOutput("out"))
	b.Connect("merge", "pair", 0)
	b.Connect("pair", "alert", 0)
	b.Connect("alert", "out", 0)
	b.Input("temp", "merge", 0)
	b.Input("gas", "merge", 1)
	b.Output("alerts", "out")
	return b.Build()
}

func reading(kind int64) func(uint64) []int64 {
	return func(seq uint64) []int64 {
		site := int64(seq % sites)
		// Deterministic pseudo-readings; occasionally both run hot at
		// the same site and instant, producing an alert.
		v := int64((seq*seq*31 + uint64(kind)*17) % 100) // 0..99
		return []int64{site, v}
	}
}

func main() {
	rt := borealis.NewSimRuntime() // NewRealtimeRuntime(100) runs it live
	clk := rt.Clock()
	net := borealis.NewNetOn(clk)

	temp := borealis.NewSourceOn(clk, net, borealis.SourceConfig{
		ID: "tempsrc", Stream: "temp", Rate: 400, Payload: reading(0),
	})
	gas := borealis.NewSourceOn(clk, net, borealis.SourceConfig{
		ID: "gassrc", Stream: "gas", Rate: 400, Payload: reading(1),
	})
	ups := map[string][]string{"temp": {"tempsrc"}, "gas": {"gassrc"}}

	for _, id := range []string{"nodeA", "nodeB"} {
		d, err := sensorDiagram()
		if err != nil {
			log.Fatal(err)
		}
		peer := "nodeB"
		if id == "nodeB" {
			peer = "nodeA"
		}
		n, err := borealis.NewNodeOn(clk, net, d, borealis.NodeConfig{
			ID:          id,
			Peers:       []string{peer},
			Upstreams:   ups,
			Downstreams: map[string][]string{"alerts": {"ops"}},
			// Technicians can wait a few seconds for accuracy:
			// delay as long as the bound allows (§6's Delay policy).
			FailurePolicy:       borealis.PolicyDelay,
			StabilizationPolicy: borealis.PolicyDelay,
		})
		if err != nil {
			log.Fatal(err)
		}
		n.Start()
	}

	ops, err := borealis.NewClientOn(clk, net, borealis.ClientConfig{
		ID: "ops", Stream: "alerts", Upstreams: []string{"nodeA", "nodeB"},
	})
	if err != nil {
		log.Fatal(err)
	}
	ops.Start()

	// The gas sensor uplink drops for 8 seconds.
	clk.At(10*borealis.Second, gas.Disconnect)
	clk.At(18*borealis.Second, gas.Reconnect)

	temp.Start()
	gas.Start()
	rt.RunFor(60 * borealis.Second)

	st := ops.Stats()
	fmt.Println("Sensor monitoring: 8s gas-sensor uplink failure (Delay & Delay)")
	fmt.Printf("  alerts delivered:         %d\n", st.NewTuples)
	fmt.Printf("  tentative alerts:         %d (join ran on partial data)\n", st.Tentative)
	fmt.Printf("  corrections (undo seqs):  %d\n", st.Undos)
	// A Join is a BLOCKING operator (§2.1): with its gas side missing no
	// new matches are possible at all, so the availability bound applies
	// only to paths of non-blocking operators (Property 1). The max
	// latency therefore reflects the failure duration here, not a DPC
	// violation.
	fmt.Printf("  max added latency:        %.2fs (join blocks without its gas side)\n",
		float64(st.MaxLatency)/1e6)

	// Compare the final stable alerts with an uninterrupted run: every
	// tentative alert was either confirmed or revoked.
	refRT := borealis.NewSimRuntime()
	refClk := refRT.Clock()
	refNet := borealis.NewNetOn(refClk)
	rtemp := borealis.NewSourceOn(refClk, refNet, borealis.SourceConfig{
		ID: "tempsrc", Stream: "temp", Rate: 400, Payload: reading(0)})
	rg := borealis.NewSourceOn(refClk, refNet, borealis.SourceConfig{
		ID: "gassrc", Stream: "gas", Rate: 400, Payload: reading(1)})
	d, _ := sensorDiagram()
	rn, err := borealis.NewNodeOn(refClk, refNet, d, borealis.NodeConfig{
		ID: "nodeA", Upstreams: ups,
		Downstreams: map[string][]string{"alerts": {"ops"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	refOps, _ := borealis.NewClientOn(refClk, refNet, borealis.ClientConfig{
		ID: "ops", Stream: "alerts", Upstreams: []string{"nodeA"},
	})
	rn.Start()
	refOps.Start()
	rtemp.Start()
	rg.Start()
	refRT.RunFor(60 * borealis.Second)

	audit := ops.VerifyEventualConsistency(refOps.View())
	if audit.OK {
		fmt.Printf("  final diagnosis:          ok — %d stable alerts match the uninterrupted run\n", audit.Compared)
	} else {
		fmt.Printf("  final diagnosis:          MISMATCH: %s\n", audit.Reason)
	}
	// The client's duplicate count is a heuristic: identical alerts at
	// the same instant count too, and the join produces many. Only
	// duplicates beyond the uninterrupted run's were delivered twice.
	extra := int64(st.StableDuplicates) - int64(refOps.Stats().StableDuplicates)
	fmt.Printf("  stable duplicate alerts:  %d beyond the uninterrupted run's (must be 0)\n", extra)
	if !audit.OK || extra != 0 {
		os.Exit(1)
	}
}
