package core

import (
	"fmt"

	"dsh/internal/packet"
	"dsh/units"
)

// DSH is the paper's Dynamic and Shared Headroom scheme (§IV).
//
// Buffer partition (Fig. 7): private buffer per queue (unchanged), a single
// shared segment holding both footroom and dynamically allocated headroom,
// and a statically reserved per-port *insurance headroom* of η bytes
// (Bi = Np·η, Eq. 4).
//
// Flow control:
//   - queue level: pause class when its shared occupancy exceeds
//     Xqoff(t) = T(t) − η (Eq. 5), so a congested queue always has ~η of
//     shared buffer left to absorb its in-flight packets;
//   - port level: pause the whole upstream port when the port's total shared
//     occupancy exceeds Xpoff(t) = Nq·T(t) (Eq. 6); packets arriving while
//     the port is in POFF state land in the insurance headroom.
type DSH struct {
	base
	insurance  []units.ByteSize // per-queue insurance occupancy (for release order)
	portIns    []units.ByteSize // per-port insurance occupancy, ≤ η
	portShared []units.ByteSize // per-port Σ_c w (shared footroom+headroom)
	poff       []bool           // port-level OFF state
}

var _ MMU = (*DSH)(nil)

// NewDSH builds the DSH MMU. The shared segment is
// Bs = B − Np·Nq'·φ − Np·η; it errors out if nothing is left to share.
func NewDSH(cfg Config) (*DSH, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nq := units.ByteSize(cfg.AccountedClasses())
	np := units.ByteSize(cfg.Ports)
	reserved := np * nq * cfg.PrivatePerQueue
	if !cfg.DisablePortLevel {
		reserved += cfg.totalEta()
	}
	sharedCap := cfg.TotalBuffer - reserved
	if sharedCap <= 0 {
		return nil, fmt.Errorf("core: DSH reservation %v (insurance+private) exceeds buffer %v",
			reserved, cfg.TotalBuffer)
	}
	return &DSH{
		base:       newBase(cfg, sharedCap),
		insurance:  make([]units.ByteSize, cfg.Ports*cfg.Classes),
		portIns:    make([]units.ByteSize, cfg.Ports),
		portShared: make([]units.ByteSize, cfg.Ports),
		poff:       make([]bool, cfg.Ports),
	}, nil
}

// Scheme implements MMU.
func (d *DSH) Scheme() string { return "DSH" }

// HeadroomUsed implements MMU: the port's insurance headroom occupancy.
func (d *DSH) HeadroomUsed(port int) units.ByteSize { return d.portIns[port] }

// HeadroomCap implements MMU: η per port (Eq. 4).
func (d *DSH) HeadroomCap(port int) units.ByteSize { return d.cfg.eta(port) }

// PortPaused implements MMU.
func (d *DSH) PortPaused(port int) bool { return d.poff[port] }

// PortShared returns the port's total shared occupancy w^i(t).
func (d *DSH) PortShared(port int) units.ByteSize { return d.portShared[port] }

// QueueLen implements MMU, including insurance bytes charged to the queue.
func (d *DSH) QueueLen(port int, class packet.Class) units.ByteSize {
	i := d.idx(port, class)
	return d.priv[i] + d.shared[i] + d.insurance[i]
}

// XQOff returns the current queue-level pause threshold Xqoff(t) = T(t) − η
// for a given ingress port, clamped at zero.
func (d *DSH) XQOff(port int) units.ByteSize {
	t := d.threshold() - d.cfg.eta(port)
	if t < 0 {
		return 0
	}
	return t
}

// XPOff returns the current port-level pause threshold Xpoff(t) = Nq·T(t).
func (d *DSH) XPOff() units.ByteSize {
	return units.ByteSize(d.cfg.AccountedClasses()) * d.threshold()
}

// Admit implements MMU. Placement follows Fig. 8: private first; insurance
// headroom while the port is in POFF; otherwise the shared segment, with
// queue- and port-level pause checks after charging.
func (d *DSH) Admit(port int, class packet.Class, size units.ByteSize) (bool, []Action) {
	d.checkBounds(port, class)
	d.acts = d.acts[:0]
	if d.exempt(class) || size == 0 {
		return true, nil
	}
	i := d.idx(port, class)
	if !d.poff[port] && d.priv[i]+size <= d.cfg.PrivatePerQueue {
		d.priv[i] += size
		return true, d.acts
	}
	if d.poff[port] {
		return d.admitInsurance(i, port, size), d.acts
	}
	if d.sharedUsed+size > d.sharedCap {
		if d.cfg.DisablePortLevel {
			// Ablation mode: no insurance to fall back on.
			d.drops++
			return false, d.acts
		}
		// The shared segment is physically exhausted: this is port-level
		// congestion by definition (T(t) ≈ 0 ⇒ Xpoff ≈ 0). Trip the port
		// into POFF and use the insurance headroom.
		d.pausePort(port)
		return d.admitInsurance(i, port, size), d.acts
	}
	d.shared[i] += size
	d.sharedUsed += size
	d.portShared[port] += size
	if !d.qoff[i] && d.shared[i] > d.XQOff(port) {
		d.qoff[i] = true
		d.acts = append(d.acts, Action{Port: port, Class: class, Pause: true})
	}
	if !d.cfg.DisablePortLevel && !d.poff[port] && d.portShared[port] > d.XPOff() {
		d.pausePort(port)
	}
	return true, d.acts
}

func (d *DSH) admitInsurance(i, port int, size units.ByteSize) bool {
	if d.portIns[port]+size > d.cfg.eta(port) {
		// Insurance exhausted: only reachable if in-flight traffic exceeds
		// the Eq. 1 worst case (e.g., a mis-sized η). Counted as a loss.
		d.drops++
		return false
	}
	d.insurance[i] += size
	d.portIns[port] += size
	return true
}

func (d *DSH) pausePort(port int) {
	d.poff[port] = true
	d.acts = append(d.acts, Action{Port: port, PortLevel: true, Pause: true})
}

// Release implements MMU. Departing bytes free insurance first, then shared,
// then private; resume checks follow (Fig. 8).
func (d *DSH) Release(port int, class packet.Class, size units.ByteSize) []Action {
	d.checkBounds(port, class)
	d.acts = d.acts[:0]
	if d.exempt(class) || size == 0 {
		return nil
	}
	i := d.idx(port, class)
	rem := size
	if v := min(d.insurance[i], rem); v > 0 {
		d.insurance[i] -= v
		d.portIns[port] -= v
		rem -= v
	}
	if v := min(d.shared[i], rem); v > 0 {
		d.shared[i] -= v
		d.sharedUsed -= v
		d.portShared[port] -= v
		rem -= v
	}
	if rem > 0 {
		d.priv[i] -= rem
		if d.priv[i] < 0 {
			panic(fmt.Sprintf("core: DSH queue (%d,%d) released more than charged", port, class))
		}
	}
	d.maybeResumeQueue(i, port, class)
	d.maybeResumePort(port)
	return d.acts
}

// maybeResumeQueue emits a queue-level RESUME when shared occupancy falls to
// Xqon(t) = Xqoff(t).
func (d *DSH) maybeResumeQueue(i, port int, class packet.Class) {
	if !d.qoff[i] {
		return
	}
	xon := d.XQOff(port)
	if xon < 0 {
		xon = 0
	}
	if d.shared[i] <= xon {
		d.qoff[i] = false
		d.acts = append(d.acts, Action{Port: port, Class: class, Pause: false})
	}
}

// maybeResumePort emits a port-level RESUME when the port's insurance
// headroom has drained, so a future POFF again has η to absorb, and its
// shared occupancy has fallen to Xpon(t) = Xpoff(t).
func (d *DSH) maybeResumePort(port int) {
	if !d.poff[port] || d.portIns[port] > 0 {
		return
	}
	xpon := d.XPOff()
	if xpon < 0 {
		xpon = 0
	}
	if d.portShared[port] <= xpon {
		d.poff[port] = false
		d.acts = append(d.acts, Action{Port: port, PortLevel: true, Pause: false})
	}
}
