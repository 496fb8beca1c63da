package scenario

import (
	"math"
	"strconv"
	"strings"

	"borealis/internal/deploy"
)

// EventKind names what one timeline event does to its target.
type EventKind int

const (
	// EvCrash fail-stops replica Node/Replica; EvRestart recovers it (§4.5).
	EvCrash EventKind = iota
	EvRestart
	// EvDisconnect cuts source member Source off; EvReconnect brings it back
	// with full replay.
	EvDisconnect
	EvReconnect
	// EvStall stops Source's boundary tuples while data keeps flowing;
	// EvResume restarts them.
	EvStall
	EvResume
	// EvBlock severs both directions between endpoints From and To;
	// EvUnblock releases that one block (blocks of a pair are counted).
	EvBlock
	EvUnblock
)

// Event is one timed step of a fault: what every way of running a spec —
// the single-process installer, a cluster partition, the cluster boss —
// executes, and what the heal bookkeeping and the fuzzer's quiet-tail
// reasoning read.
type Event struct {
	AtUS int64
	Kind EventKind
	// Fault indexes Spec.Faults: the fault this event belongs to.
	Fault int
	// Heals marks the event that ends (its share of) the fault: a restart,
	// reconnect, resume or unblock.
	Heals bool
	// Node / Replica target a crash or restart.
	Node    string
	Replica int
	// Source is the expanded member a source event acts on.
	Source string
	// From / To are the endpoint IDs of a block or unblock.
	From, To string
}

// Timeline expands a validated spec's fault schedule into timed events —
// the one place outside Validate that knows a fault kind's defaults and
// horizon rule. Events come in spec order, not time order: fault by fault;
// within a fault a crash before its restart, a flap cycle's down before its
// up, and per source member or endpoint pair the onset before the heal.
// Installers schedule them in exactly this order (same-instant events run
// FIFO, so the order is behaviour).
//
// A fault whose onset is at or past the run horizon never fires and yields
// nothing. A fault that does fire yields all of its events, including ones
// past the horizon; consumers decide what an event that never happens means
// to them.
func Timeline(s *Spec, quick bool) []Event { return timeline(s, quickDuration(s, quick)) }

// timeline is Timeline against an explicit horizon.
func timeline(s *Spec, horizon int64) []Event {
	evs := make([]Event, 0, 2*len(s.Faults)) // onset + heal: exact for most schedules
	for i := range s.Faults {
		f := &s.Faults[i]
		at, dur := seconds(f.AtS), seconds(f.DurationS)
		if at >= horizon {
			continue
		}
		add := func(atUS int64, kind EventKind, target Event) {
			target.AtUS, target.Kind, target.Fault = atUS, kind, i
			target.Heals = kind == EvRestart || kind == EvReconnect || kind == EvResume || kind == EvUnblock
			evs = append(evs, target)
		}
		replica := Event{Node: f.Node, Replica: f.Replica}
		switch f.Kind {
		case "crash":
			// Without a duration the crash is permanent (unless a later
			// restart names the replica): no event of its own heals it.
			add(at, EvCrash, replica)
			if dur > 0 {
				add(at+dur, EvRestart, replica)
			}
		case "restart":
			add(at, EvRestart, replica)
		case "flap":
			period := seconds(f.PeriodS)
			count := f.Count
			if count <= 0 {
				count = 3
			}
			down := dur
			if down <= 0 {
				down = period / 2
			}
			for k := 0; k < count; k++ {
				t := at + int64(k)*period
				add(t, EvCrash, replica)
				add(t+down, EvRestart, replica)
			}
		case "disconnect", "stall_boundaries":
			on, off := EvDisconnect, EvReconnect
			if f.Kind == "stall_boundaries" {
				on, off = EvStall, EvResume
			}
			for _, id := range s.memberIDs(f.Source) {
				add(at, on, Event{Source: id})
				add(at+dur, off, Event{Source: id})
			}
		case "partition":
			for _, a := range s.endpointIDs(f.From) {
				for _, b := range s.endpointIDs(f.To) {
					add(at, EvBlock, Event{From: a, To: b})
					add(at+dur, EvUnblock, Event{From: a, To: b})
				}
			}
		}
	}
	return evs
}

// LastFaultHealUS is the latest instant within the run at which an injected
// fault heals, -1 without one: the baseline of the report's stabilization
// latency. Heals past the horizon never happen and do not count.
func LastFaultHealUS(s *Spec, quick bool) int64 {
	horizon := quickDuration(s, quick)
	last := int64(-1)
	for _, ev := range timeline(s, horizon) {
		if ev.Heals && ev.AtUS <= horizon && ev.AtUS > last {
			last = ev.AtUS
		}
	}
	return last
}

// FaultTargets lists the replica endpoints hit by process-level events
// (crash, restart), deduplicated in schedule order. In a cluster run each of
// these is hosted alone on a dedicated worker so the boss can translate the
// event into a real signal to that worker's process. No horizon applies: the
// plan is the same with and without -quick, and every event the boss
// translates finds its worker.
func FaultTargets(s *Spec) []string {
	var out []string
	seen := map[string]bool{}
	for _, ev := range timeline(s, math.MaxInt64) {
		if ev.Kind != EvCrash && ev.Kind != EvRestart {
			continue
		}
		if id := deploy.GroupReplicaID(ev.Node, ev.Replica); !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Endpoints enumerates every network endpoint a compiled spec registers, in
// deterministic spec order: expanded source members, replica IDs group by
// group, then the client. The boss's partition plan divides exactly this
// set.
func Endpoints(s *Spec) []string {
	var out []string
	for i := range s.Sources {
		out = append(out, s.Sources[i].members()...)
	}
	for i := range s.Nodes {
		out = append(out, s.replicaIDs(&s.Nodes[i])...)
	}
	return append(out, "client")
}

// replicaIDs lists a node's replica endpoint IDs.
func (s *Spec) replicaIDs(n *NodeSpec) []string {
	ids := make([]string, s.ReplicasOf(n))
	for r := range ids {
		ids[r] = deploy.GroupReplicaID(n.Name, r)
	}
	return ids
}

// memberIDs resolves a source reference into endpoint IDs: an expanded
// member name, or a group name covering every member; nil when it names
// neither.
func (s *Spec) memberIDs(name string) []string {
	var group []string
	for i := range s.Sources {
		members := s.Sources[i].members()
		for _, m := range members {
			if m == name {
				return []string{m}
			}
		}
		if s.Sources[i].Name == name {
			group = members
		}
	}
	return group
}

// endpointIDs resolves a partition endpoint ("client", a node name covering
// all replicas, a "node/replica" pair, a source group or expanded member)
// into network endpoint IDs; nil when it does not resolve, which Validate
// rejects.
func (s *Spec) endpointIDs(ep string) []string {
	if ep == "client" {
		return []string{"client"}
	}
	name, rep, hasRep := strings.Cut(ep, "/")
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name != name {
			continue
		}
		if !hasRep {
			return s.replicaIDs(n)
		}
		r, err := strconv.Atoi(rep)
		if err != nil || r < 0 || r >= s.ReplicasOf(n) {
			return nil
		}
		return []string{deploy.GroupReplicaID(name, r)}
	}
	if hasRep {
		return nil
	}
	return s.memberIDs(ep)
}
