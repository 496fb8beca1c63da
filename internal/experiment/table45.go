package experiment

import (
	"io"
	"math"

	"borealis/internal/diagram"
	"borealis/internal/netsim"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/source"
)

// OverheadRow is one column of Table IV or V: per-tuple latency statistics
// (milliseconds) for a given serialization parameter.
type OverheadRow struct {
	ParamMs  int64 // bucket size (Table IV) or boundary interval (Table V)
	Min, Max float64
	Avg, Std float64
	Tuples   int
}

// OverheadResult reproduces Table IV (varying bucket size at a 10 ms
// boundary interval) or Table V (varying boundary interval at a 10 ms
// bucket). The 0 column replaces SUnion+SOutput with a plain Union and
// removes boundary tuples, as in the paper. Expected shape: maximum and
// average latency grow linearly with both parameters.
type OverheadResult struct {
	VaryBucket bool
	Rows       []OverheadRow
}

// Table4 varies the bucket size.
func Table4(opts Options) OverheadResult {
	return overheadSweep(true, opts)
}

// Table5 varies the boundary interval.
func Table5(opts Options) OverheadResult {
	return overheadSweep(false, opts)
}

func overheadSweep(varyBucket bool, opts Options) OverheadResult {
	params := []int64{0, 10, 50, 100, 150, 200, 300, 500}
	runSecs := int64(300) // the paper's 5-minute run: ≈ 25 000 tuples
	if opts.Quick {
		params = []int64{0, 10, 100}
		runSecs = 30
	}
	res := OverheadResult{VaryBucket: varyBucket}
	for _, p := range params {
		bucket, interval := p*runtime.Millisecond, int64(10*runtime.Millisecond)
		if !varyBucket {
			bucket, interval = 10*runtime.Millisecond, p*runtime.Millisecond
		}
		res.Rows = append(res.Rows, overheadRun(p, bucket, interval, runSecs, opts))
	}
	return res
}

// latencySink is a bare network endpoint recording per-tuple latency: the
// Fig. 22 client, without a DPC proxy, so the measured delay isolates the
// serialization overhead of the one SUnion+SOutput node.
type latencySink struct {
	sim        *runtime.VirtualClock
	count      int
	min, max   int64
	sum, sumSq float64
	lastSTime  int64
}

func (ls *latencySink) handle(_ string, msg any) {
	dm, ok := msg.(node.DataMsg)
	if !ok {
		return
	}
	for _, t := range dm.Tuples {
		if !t.IsData() || t.STime <= ls.lastSTime {
			continue
		}
		ls.lastSTime = t.STime
		lat := ls.sim.Now() - t.STime
		if ls.count == 0 || lat < ls.min {
			ls.min = lat
		}
		if lat > ls.max {
			ls.max = lat
		}
		ls.count++
		ls.sum += float64(lat)
		ls.sumSq += float64(lat) * float64(lat)
	}
}

func (ls *latencySink) row(param int64) OverheadRow {
	r := OverheadRow{ParamMs: param, Tuples: ls.count}
	if ls.count == 0 {
		return r
	}
	ms := float64(runtime.Millisecond)
	r.Min = float64(ls.min) / ms
	r.Max = float64(ls.max) / ms
	mean := ls.sum / float64(ls.count)
	r.Avg = mean / ms
	v := ls.sumSq/float64(ls.count) - mean*mean
	if v > 0 {
		r.Std = math.Sqrt(v) / ms
	}
	return r
}

// overheadRun builds the Fig. 22 pipeline. A zero bucket builds the
// baseline (plain Union, no boundaries, Fig. 22(b)).
func overheadRun(param, bucket, interval, runSecs int64, opts Options) OverheadRow {
	sim := runtime.NewVirtual()
	net := netsim.New(sim)

	baseline := bucket == 0 || interval == 0
	b := diagram.NewBuilder()
	if baseline {
		b.Add(operator.NewUnion("u", 1))
		b.Input("s1", "u", 0)
		b.Output("t1", "u")
	} else {
		b.Add(operator.NewSUnion("su", operator.SUnionConfig{
			Ports:      1,
			BucketSize: bucket,
			Delay:      2 * runtime.Second,
		}))
		b.Add(operator.NewSOutput("so"))
		b.Connect("su", "so", 0)
		b.Input("s1", "su", 0)
		b.Output("t1", "so")
	}
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	n, err := node.New(sim, net, d, node.Config{
		ID:           "n1",
		Upstreams:    map[string][]string{"s1": {"src1"}},
		StallTimeout: 1 << 60, // no failures in the overhead runs
	})
	if err != nil {
		panic(err)
	}
	if opts.PerTuple {
		n.Engine().UseReferencePlane()
	}
	srcCfg := source.Config{
		ID:               "src1",
		Stream:           "s1",
		Rate:             100, // one tuple every 10 ms, as in §7
		TickInterval:     10 * runtime.Millisecond,
		BoundaryInterval: interval,
	}
	if baseline {
		srcCfg.BoundaryInterval = 1 << 60 // no boundary tuples at all
	}
	src := source.New(sim, net, srcCfg)

	ls := &latencySink{sim: sim}
	net.Register("sink", ls.handle)
	n.Start()
	src.Start()
	net.Send("sink", "n1", node.SubscribeMsg{Stream: "t1"})
	sim.RunFor(runSecs * runtime.Second)
	return ls.row(param)
}

// Print renders the paper's table layout.
func (r OverheadResult) Print(w io.Writer) {
	if r.VaryBucket {
		fprintf(w, "Table IV: latency overhead of serialization — varying bucket size (boundary interval 10 ms)\n")
		fprintf(w, "%-32s", "Bucket size (ms)")
	} else {
		fprintf(w, "Table V: latency overhead of serialization — varying boundary interval (bucket size 10 ms)\n")
		fprintf(w, "%-32s", "Boundary interval (ms)")
	}
	for _, row := range r.Rows {
		fprintf(w, "%8d", row.ParamMs)
	}
	stats := []struct {
		name string
		get  func(OverheadRow) float64
	}{
		{"Minimum latency", func(r OverheadRow) float64 { return r.Min }},
		{"Maximum latency", func(r OverheadRow) float64 { return r.Max }},
		{"Average latency", func(r OverheadRow) float64 { return r.Avg }},
		{"Standard deviation of latency", func(r OverheadRow) float64 { return r.Std }},
	}
	for _, s := range stats {
		fprintf(w, "\n%-32s", s.name)
		for _, row := range r.Rows {
			fprintf(w, "%8.1f", s.get(row))
		}
	}
	fprintf(w, "\n")
}
