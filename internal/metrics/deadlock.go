package metrics

import (
	"dsh/internal/packet"
	"dsh/internal/topology"
	"dsh/units"
)

// DeadlockDetector periodically scans the network for a cyclic buffer
// dependency among paused, backlogged egress queues — the PFC deadlock
// condition (§V-A, Fig. 12).
//
// The wait-for graph has one node per switch egress port. A node is
// *blocked* when some class with backlog is paused on it. A blocked node
// (S, p) waits on the downstream switch D at the other end of the link:
// the pause lifts only when D's ingress from that link drains, which
// requires the egress ports of D that currently buffer bytes charged to
// that ingress to transmit. A cycle of blocked nodes that persists for
// `Confirm` consecutive scans is a deadlock; the onset is the first scan of
// the persistent streak.
type DeadlockDetector struct {
	net      *topology.Network
	interval units.Time
	confirm  int

	streak   int
	streakAt units.Time
	onset    units.Time
}

// NewDeadlockDetector builds a detector; Start arms it. interval defaults
// to 100 µs and confirm to 3 scans when zero.
func NewDeadlockDetector(net *topology.Network, interval units.Time, confirm int) *DeadlockDetector {
	if interval <= 0 {
		interval = 100 * units.Microsecond
	}
	if confirm <= 0 {
		confirm = 3
	}
	return &DeadlockDetector{net: net, interval: interval, confirm: confirm, onset: -1}
}

// Start begins periodic scanning.
func (d *DeadlockDetector) Start() {
	d.net.Sim.ScheduleAction(d.interval, d, nil, 0)
}

// Run implements sim.Action: the detector is its own pre-bound tick
// callback, so each rescheduled scan allocates nothing.
func (d *DeadlockDetector) Run(any, int64) { d.tick() }

// Onset returns the deadlock onset time, or a negative value if none was
// detected.
func (d *DeadlockDetector) Onset() units.Time { return d.onset }

// Deadlocked reports whether a confirmed deadlock was detected.
func (d *DeadlockDetector) Deadlocked() bool { return d.onset >= 0 }

func (d *DeadlockDetector) tick() {
	now := d.net.Sim.Now()
	if d.scanCycle() {
		if d.streak == 0 {
			d.streakAt = now
		}
		d.streak++
		if d.streak >= d.confirm && d.onset < 0 {
			d.onset = d.streakAt
		}
	} else {
		d.streak = 0
	}
	d.net.Sim.ScheduleAction(d.interval, d, nil, 0)
}

// node identifies one egress port in the wait-for graph.
type dnode struct{ sw, port int }

// scanCycle builds the wait-for graph over blocked egress ports and runs a
// DFS cycle detection.
func (d *DeadlockDetector) scanCycle() bool {
	net := d.net
	blocked := make(map[dnode]bool)
	for si, sw := range net.Switches {
		for p := 0; p < sw.Ports(); p++ {
			port := sw.Port(p)
			if !port.Up() {
				continue
			}
			for c := 0; c < packet.NumClasses; c++ {
				cls := packet.Class(c)
				if port.ClassBacklog(cls) > 0 && port.ClassPaused(cls) {
					blocked[dnode{si, p}] = true
					break
				}
			}
		}
	}
	if len(blocked) == 0 {
		return false
	}
	edges := make(map[dnode][]dnode, len(blocked))
	for n := range blocked {
		swNode := net.SwitchNode(n.sw)
		peer, peerPort, ok := net.Peer(swNode, n.port)
		if !ok || !net.IsSwitchNode(peer) {
			continue // hosts sink traffic and never deadlock
		}
		down := net.SwitchByNode(peer)
		di := peer - len(net.Hosts)
		for o := 0; o < down.Ports(); o++ {
			if down.ChargedBytes(peerPort, o) > 0 && blocked[dnode{di, o}] {
				edges[n] = append(edges[n], dnode{di, o})
			}
		}
	}
	// Iterative DFS with colors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[dnode]int, len(blocked))
	for start := range blocked {
		if color[start] != white {
			continue
		}
		// Explicit frame stack to emulate recursion.
		type frame struct {
			n dnode
			i int
		}
		frames := []frame{{start, 0}}
		color[start] = gray
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(edges[f.n]) {
				next := edges[f.n][f.i]
				f.i++
				switch color[next] {
				case white:
					color[next] = gray
					frames = append(frames, frame{next, 0})
				case gray:
					return true // back edge: cycle
				}
			} else {
				color[f.n] = black
				frames = frames[:len(frames)-1]
			}
		}
	}
	return false
}
