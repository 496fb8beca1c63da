package operator

import (
	"borealis/internal/runtime"
	"borealis/internal/tuple"
)

// collector is a test Env that records emissions and signals.
type collector struct {
	sim     *runtime.VirtualClock
	out     []tuple.Tuple
	signals []Signal
	divergd bool
	// raise makes Emit raise divergd on a tentative tuple, as the engine's
	// emit closures raise the node's flag.
	raise bool
}

func newCollector(sim *runtime.VirtualClock) *collector { return &collector{sim: sim} }

func (c *collector) env() *Env {
	e := &Env{
		Emit: func(t tuple.Tuple) {
			c.out = append(c.out, t)
			c.divergd = c.divergd || c.raise && t.Type == tuple.Tentative
		},
		Signal:   func(s Signal) { c.signals = append(c.signals, s) },
		Diverged: func() bool { return c.divergd },
	}
	if c.sim != nil {
		e.Now = c.sim.Now
		e.After = c.sim.After
	} else {
		e.Now = func() int64 { return 0 }
	}
	return e
}

func (c *collector) data() []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range c.out {
		if t.IsData() {
			out = append(out, t)
		}
	}
	return out
}

func (c *collector) ofType(typ tuple.Type) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range c.out {
		if t.Type == typ {
			out = append(out, t)
		}
	}
	return out
}

func (c *collector) reset() { c.out = nil; c.signals = nil }

// attach wires an operator to a fresh collector.
func attach(op Operator, sim *runtime.VirtualClock) *collector {
	c := newCollector(sim)
	op.Attach(c.env())
	return c
}

func stimes(ts []tuple.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.STime
	}
	return out
}

func eqI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
