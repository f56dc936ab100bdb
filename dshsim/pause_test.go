package dshsim

import (
	"dsh/internal/packet"
	"dsh/internal/topology"
	"dsh/units"
)

// pauseSummary aggregates PFC pause state over a whole network: how long
// each side of the fabric spent paused, split by level and by where the
// pause was experienced (host NICs vs switch egress ports).
type pauseSummary struct {
	// HostClassPaused sums queue-level pause time over all host uplinks
	// and classes; HostPortPaused sums port-level pause time.
	HostClassPaused units.Time
	HostPortPaused  units.Time
	// SwitchClassPaused and SwitchPortPaused are the same for switch
	// egress ports (switch-to-switch and switch-to-host pauses).
	SwitchClassPaused units.Time
	SwitchPortPaused  units.Time
	// Frames counts PAUSE transitions received anywhere.
	Frames int64
	// PerClass splits the class-level pause time by priority class.
	PerClass [packet.NumClasses]units.Time
}

// Total returns all pause time combined.
func (s pauseSummary) Total() units.Time {
	return s.HostClassPaused + s.HostPortPaused + s.SwitchClassPaused + s.SwitchPortPaused
}

// collectPauses walks the network and aggregates pause accounting.
func collectPauses(net *topology.Network) pauseSummary {
	var s pauseSummary
	for _, h := range net.Hosts {
		p := h.Port()
		for c := 0; c < p.Classes(); c++ {
			d := p.ClassPausedTime(packet.Class(c))
			s.HostClassPaused += d
			s.PerClass[c] += d
		}
		s.HostPortPaused += p.PortPausedTime()
		s.Frames += p.PauseFrames()
	}
	for _, sw := range net.Switches {
		for i := 0; i < sw.Ports(); i++ {
			p := sw.Port(i)
			for c := 0; c < p.Classes(); c++ {
				d := p.ClassPausedTime(packet.Class(c))
				s.SwitchClassPaused += d
				s.PerClass[c] += d
			}
			s.SwitchPortPaused += p.PortPausedTime()
			s.Frames += p.PauseFrames()
		}
	}
	return s
}

// residualOccupancy sums the shared-segment and per-port headroom
// occupancy of every switch at the current instant.
func residualOccupancy(net *topology.Network) (shared, headroom units.ByteSize) {
	for _, sw := range net.Switches {
		mmu := sw.MMU()
		shared += mmu.SharedUsed()
		for p := 0; p < sw.Ports(); p++ {
			headroom += mmu.HeadroomUsed(p)
		}
	}
	return shared, headroom
}
