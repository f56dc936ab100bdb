// Package core implements the paper's contribution: the switch Memory
// Management Unit (MMU) for the lossless buffer pool, with two headroom
// allocation schemes behind a common interface:
//
//   - SIH — the baseline "Static and Independent Headroom" scheme: worst-case
//     headroom η statically reserved for every ingress queue (Eq. 1/3).
//   - DSH — "Dynamic and Shared Headroom": headroom folded into the shared
//     buffer and allocated on demand via a lowered queue-level pause threshold
//     Xqoff(t) = T(t) − η (Eq. 5), backed by per-port insurance headroom
//     (Eq. 4) guarded by a port-level pause threshold Xpoff(t) = Nq·T(t)
//     (Eq. 6).
//
// Both schemes use ingress accounting (a buffered packet is charged to the
// ingress port/class it arrived on until it departs) and Dynamic Threshold
// (DT, Eq. 2) for the shared segment, matching commodity switching chips.
package core

import (
	"fmt"

	"dsh/internal/packet"
	"dsh/units"
)

// RequiredHeadroom computes Eq. 1: the worst-case per-queue headroom
//
//	η = 2(C·Dprop + L_MTU) + 3840B
//
// covering PAUSE waiting, propagation (both ways), processing, and response
// delays for an upstream link of the given rate and propagation delay.
func RequiredHeadroom(rate units.BitRate, prop units.Time, mtu units.ByteSize) units.ByteSize {
	inFlight := units.BytesInTime(prop, rate)
	return 2*(inFlight+mtu) + 3840
}

// PFCProcessingDelay returns the PFC-standard cap on PAUSE processing time,
// 3840 bit-times... the standard caps it at the time to transmit 3840 bytes
// at the port rate (component ③ of Eq. 1).
func PFCProcessingDelay(rate units.BitRate) units.Time {
	return units.TransmissionTime(3840, rate)
}

// Action is a flow-control instruction the MMU emits toward the upstream
// device of an ingress port.
type Action struct {
	// Port is the ingress port whose upstream must be signalled.
	Port int
	// PortLevel marks DSH port-level frames (all priorities at once).
	PortLevel bool
	// Class is the priority class for queue-level actions.
	Class packet.Class
	// Pause is true for PAUSE, false for RESUME.
	Pause bool
}

// Config parameterises an MMU instance.
type Config struct {
	// Ports is the number of (ingress) ports Np.
	Ports int
	// Classes is the number of priority classes per port (8 for PFC).
	Classes int
	// AckClass is a class exempt from lossless accounting (reserved for
	// ACK/control traffic in the evaluation); −1 disables the exemption.
	AckClass int
	// TotalBuffer is the lossless pool size B.
	TotalBuffer units.ByteSize
	// PrivatePerQueue is φ, the reserved private buffer per accounted queue.
	PrivatePerQueue units.ByteSize
	// Eta is η (Eq. 1), the worst-case per-hop headroom.
	Eta units.ByteSize
	// EtaPerPort optionally overrides Eta per ingress port; ports whose
	// upstream links differ in rate or length need different worst-case
	// headroom. When set, it must have exactly Ports entries.
	EtaPerPort []units.ByteSize
	// Alpha is the DT control parameter α (the evaluation uses 1/16).
	Alpha float64
	// DisablePortLevel (ablation) removes DSH's port-level flow control and
	// insurance headroom entirely: the insurance reservation is returned to
	// the shared segment and arrivals that find the shared segment
	// physically full are dropped. It demonstrates that the queue-level
	// mechanism alone cannot guarantee losslessness. SIH ignores it.
	DisablePortLevel bool
}

// DefaultConfig returns the evaluation's Tomahawk-like configuration: 32
// ports, 8 classes with class 7 reserved for ACKs, 16 MB buffer, 3 KB private
// per queue, α = 1/16, and η from Eq. 1.
func DefaultConfig(rate units.BitRate, prop units.Time, mtu units.ByteSize) Config {
	return Config{
		Ports:           32,
		Classes:         8,
		AckClass:        7,
		TotalBuffer:     16 * units.MB,
		PrivatePerQueue: 3 * units.KB,
		Eta:             RequiredHeadroom(rate, prop, mtu),
		Alpha:           1.0 / 16.0,
	}
}

// AccountedClasses returns the number of classes per port subject to
// lossless accounting (Classes minus the ACK exemption).
func (c Config) AccountedClasses() int {
	if c.AckClass >= 0 && c.AckClass < c.Classes {
		return c.Classes - 1
	}
	return c.Classes
}

func (c Config) validate() error {
	switch {
	case c.Ports <= 0:
		return fmt.Errorf("core: Ports = %d, must be positive", c.Ports)
	case c.Classes <= 0 || c.Classes > packet.NumClasses:
		return fmt.Errorf("core: Classes = %d, must be in 1..%d", c.Classes, packet.NumClasses)
	case c.TotalBuffer <= 0:
		return fmt.Errorf("core: TotalBuffer = %d, must be positive", c.TotalBuffer)
	case c.PrivatePerQueue < 0:
		return fmt.Errorf("core: PrivatePerQueue = %d, must be non-negative", c.PrivatePerQueue)
	case c.Eta <= 0:
		return fmt.Errorf("core: Eta = %d, must be positive", c.Eta)
	case c.Alpha <= 0:
		return fmt.Errorf("core: Alpha = %v, must be positive", c.Alpha)
	case c.EtaPerPort != nil && len(c.EtaPerPort) != c.Ports:
		return fmt.Errorf("core: EtaPerPort has %d entries for %d ports", len(c.EtaPerPort), c.Ports)
	}
	for p, e := range c.EtaPerPort {
		if e <= 0 {
			return fmt.Errorf("core: EtaPerPort[%d] = %d, must be positive", p, e)
		}
	}
	return nil
}

// eta returns the headroom requirement for an ingress port.
func (c Config) eta(port int) units.ByteSize {
	if c.EtaPerPort != nil {
		return c.EtaPerPort[port]
	}
	return c.Eta
}

// totalEta returns Σ_p η_p over all ports.
func (c Config) totalEta() units.ByteSize {
	if c.EtaPerPort == nil {
		return units.ByteSize(c.Ports) * c.Eta
	}
	var sum units.ByteSize
	for _, e := range c.EtaPerPort {
		sum += e
	}
	return sum
}

// MMU is the buffer admission and flow-control engine of one switch.
//
// Admit and Release return slices that are only valid until the next MMU
// call; callers must consume them immediately.
type MMU interface {
	// Admit charges an arriving packet to ingress queue (port, class). It
	// reports whether the packet is admitted (false = drop) and any PFC
	// actions to emit.
	Admit(port int, class packet.Class, size units.ByteSize) (bool, []Action)
	// Release un-charges a departing packet and returns any resume actions.
	Release(port int, class packet.Class, size units.ByteSize) []Action
	// Threshold returns the current DT threshold T(t).
	Threshold() units.ByteSize
	// SharedUsed returns the total shared-segment occupancy Σw.
	SharedUsed() units.ByteSize
	// SharedCap returns the shared-segment size Bs.
	SharedCap() units.ByteSize
	// QueueLen returns the total buffered bytes charged to (port, class).
	QueueLen(port int, class packet.Class) units.ByteSize
	// SharedLen returns the shared-segment occupancy w of (port, class).
	SharedLen(port int, class packet.Class) units.ByteSize
	// HeadroomUsed returns the port's current headroom occupancy (sum over
	// the port's queues under SIH; insurance headroom under DSH).
	HeadroomUsed(port int) units.ByteSize
	// HeadroomCap returns the port's maximum headroom (Nq·η / η).
	HeadroomCap(port int) units.ByteSize
	// QueuePaused reports whether ingress queue (port, class) is in OFF
	// state (its upstream class is paused).
	QueuePaused(port int, class packet.Class) bool
	// PortPaused reports whether the ingress port is in POFF state (DSH
	// only; always false under SIH).
	PortPaused(port int) bool
	// Drops returns the number of packets dropped by admission control.
	Drops() int64
	// Scheme names the headroom scheme ("SIH" or "DSH").
	Scheme() string
	// Config returns the configuration the MMU was built with.
	Config() Config
}

// base holds the accounting shared by both schemes.
type base struct {
	cfg        Config
	sharedCap  units.ByteSize
	sharedUsed units.ByteSize

	// Flat per-queue state, indexed port*Classes+class.
	priv   []units.ByteSize // private-segment occupancy, ≤ φ
	shared []units.ByteSize // shared-segment occupancy w
	qoff   []bool           // queue-level OFF state

	drops int64
	acts  []Action
}

func newBase(cfg Config, sharedCap units.ByteSize) base {
	n := cfg.Ports * cfg.Classes
	return base{
		cfg:       cfg,
		sharedCap: sharedCap,
		priv:      make([]units.ByteSize, n),
		shared:    make([]units.ByteSize, n),
		qoff:      make([]bool, n),
		acts:      make([]Action, 0, 4),
	}
}

func (b *base) idx(port int, class packet.Class) int { return port*b.cfg.Classes + int(class) }

func (b *base) exempt(class packet.Class) bool { return int(class) == b.cfg.AckClass }

// threshold computes the DT threshold T(t) = α·(Bs − Σw), clamped at zero.
func (b *base) threshold() units.ByteSize {
	free := b.sharedCap - b.sharedUsed
	if free <= 0 {
		return 0
	}
	return units.ByteSize(b.cfg.Alpha * float64(free))
}

func (b *base) Threshold() units.ByteSize  { return b.threshold() }
func (b *base) SharedUsed() units.ByteSize { return b.sharedUsed }
func (b *base) SharedCap() units.ByteSize  { return b.sharedCap }
func (b *base) Drops() int64               { return b.drops }
func (b *base) Config() Config             { return b.cfg }

func (b *base) QueueLen(port int, class packet.Class) units.ByteSize {
	i := b.idx(port, class)
	return b.priv[i] + b.shared[i]
}

func (b *base) SharedLen(port int, class packet.Class) units.ByteSize {
	return b.shared[b.idx(port, class)]
}

func (b *base) QueuePaused(port int, class packet.Class) bool {
	return b.qoff[b.idx(port, class)]
}

func (b *base) checkBounds(port int, class packet.Class) {
	if port < 0 || port >= b.cfg.Ports || int(class) >= b.cfg.Classes {
		panic(fmt.Sprintf("core: out of range ingress queue (%d,%d)", port, class))
	}
}
