package core

import (
	"fmt"

	"dsh/internal/packet"
	"dsh/units"
)

// SIH is the baseline Static and Independent Headroom scheme: every
// accounted ingress queue gets a private reservation φ and a worst-case
// headroom reservation η; the remaining buffer is shared under DT. The
// pause threshold Xoff equals the DT threshold T(t) (compared against the
// queue's shared occupancy), so a queue starts occupying its headroom
// exactly when it pauses its upstream.
type SIH struct {
	base
	headroom []units.ByteSize // per-queue headroom occupancy, ≤ η
	perPort  []units.ByteSize // per-port total headroom occupancy (for metrics)
}

var _ MMU = (*SIH)(nil)

// NewSIH builds the baseline MMU. The shared segment is
// Bs = B − Np·Nq'·(φ + η) (Eq. 3); it errors out if the configuration leaves
// no shared buffer, which mirrors a switch that cannot be configured.
func NewSIH(cfg Config) (*SIH, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nq := units.ByteSize(cfg.AccountedClasses())
	np := units.ByteSize(cfg.Ports)
	reserved := np*nq*cfg.PrivatePerQueue + nq*cfg.totalEta()
	sharedCap := cfg.TotalBuffer - reserved
	if sharedCap <= 0 {
		return nil, fmt.Errorf("core: SIH reservation %v (headroom+private) exceeds buffer %v",
			reserved, cfg.TotalBuffer)
	}
	return &SIH{
		base:     newBase(cfg, sharedCap),
		headroom: make([]units.ByteSize, cfg.Ports*cfg.Classes),
		perPort:  make([]units.ByteSize, cfg.Ports),
	}, nil
}

// Scheme implements MMU.
func (s *SIH) Scheme() string { return "SIH" }

// PortPaused implements MMU: SIH has no port-level flow control.
func (s *SIH) PortPaused(int) bool { return false }

// HeadroomUsed implements MMU.
func (s *SIH) HeadroomUsed(port int) units.ByteSize { return s.perPort[port] }

// HeadroomCap implements MMU.
func (s *SIH) HeadroomCap(port int) units.ByteSize {
	return units.ByteSize(s.cfg.AccountedClasses()) * s.cfg.eta(port)
}

// QueueLen implements MMU, including the headroom segment.
func (s *SIH) QueueLen(port int, class packet.Class) units.ByteSize {
	i := s.idx(port, class)
	return s.priv[i] + s.shared[i] + s.headroom[i]
}

// Admit implements MMU. Placement follows §II-C: private first, then shared
// while w stays under T(t), then the queue's static headroom (turning the
// queue OFF and emitting a PAUSE), otherwise drop.
func (s *SIH) Admit(port int, class packet.Class, size units.ByteSize) (bool, []Action) {
	s.checkBounds(port, class)
	s.acts = s.acts[:0]
	if s.exempt(class) || size == 0 {
		return true, nil
	}
	i := s.idx(port, class)
	switch {
	case s.priv[i]+size <= s.cfg.PrivatePerQueue:
		s.priv[i] += size
	case s.shared[i]+size <= s.threshold():
		s.shared[i] += size
		s.sharedUsed += size
		s.maybeResume(i, port, class)
	case s.headroom[i]+size <= s.cfg.eta(port):
		s.headroom[i] += size
		s.perPort[port] += size
		if !s.qoff[i] {
			s.qoff[i] = true
			s.acts = append(s.acts, Action{Port: port, Class: class, Pause: true})
		}
	default:
		s.drops++
		return false, nil
	}
	return true, s.acts
}

// Release implements MMU. Departing bytes free headroom first, then shared,
// then private, so occupancy above the pause threshold shrinks first.
func (s *SIH) Release(port int, class packet.Class, size units.ByteSize) []Action {
	s.checkBounds(port, class)
	s.acts = s.acts[:0]
	if s.exempt(class) || size == 0 {
		return nil
	}
	i := s.idx(port, class)
	rem := size
	if d := min(s.headroom[i], rem); d > 0 {
		s.headroom[i] -= d
		s.perPort[port] -= d
		rem -= d
	}
	if d := min(s.shared[i], rem); d > 0 {
		s.shared[i] -= d
		s.sharedUsed -= d
		rem -= d
	}
	if rem > 0 {
		s.priv[i] -= rem
		if s.priv[i] < 0 {
			panic(fmt.Sprintf("core: SIH queue (%d,%d) released more than charged", port, class))
		}
	}
	s.maybeResume(i, port, class)
	return s.acts
}

// maybeResume emits a queue-level RESUME when the OFF queue's shared
// occupancy has fallen to Xon = Xoff = T(t) (Fig. 3) and its headroom has
// drained, so the next pause again has a full η to absorb (DESIGN.md §4).
func (s *SIH) maybeResume(i, port int, class packet.Class) {
	if !s.qoff[i] || s.headroom[i] > 0 {
		return
	}
	if s.shared[i] <= s.threshold() {
		s.qoff[i] = false
		s.acts = append(s.acts, Action{Port: port, Class: class, Pause: false})
	}
}
