// Package powertcp implements the PowerTCP congestion control algorithm
// (Addanki et al., NSDI 2022), the paper's second transport.
//
// PowerTCP is window-based and driven by in-band network telemetry: every
// switch stamps (qlen, txBytes, ts, rate) at dequeue, the receiver echoes
// the stack on ACKs, and the sender computes the normalized *power*
// Γ = Λ·U / (C²·τ) per hop — current Λ = q̇ + throughput, voltage
// U = qlen + BDP — and updates the window as
//
//	w ← γ·(w_old/Γ_norm + β) + (1−γ)·w
//
// where w_old is the window when the acknowledged packet was sent.
package powertcp

import (
	"dsh/internal/packet"
	"dsh/internal/transport"
	"dsh/units"
)

// Params are the PowerTCP constants.
type Params struct {
	// LineRate is the NIC rate (initial window pacing reference).
	LineRate units.BitRate
	// Tau is τ, the fabric base RTT.
	Tau units.Time
	// Gamma is the EWMA weight γ (0.9).
	Gamma float64
	// Beta is the additive-increase term β in bytes per update.
	Beta units.ByteSize
	// MinCwnd and MaxCwnd clamp the window.
	MinCwnd units.ByteSize
	MaxCwnd units.ByteSize
	// Header is added to payload for pacing and inflight accounting.
	Header units.ByteSize
}

// DefaultParams returns standard constants: initial/maximum window around
// the bandwidth-delay product, β of one MTU.
func DefaultParams(lineRate units.BitRate, baseRTT units.Time) Params {
	bdp := units.BandwidthDelayProduct(lineRate, baseRTT)
	return Params{
		LineRate: lineRate,
		Tau:      baseRTT,
		Gamma:    0.9,
		Beta:     1500,
		MinCwnd:  1500,
		MaxCwnd:  2 * bdp,
		Header:   48,
	}
}

type sendRec struct {
	seqEnd units.ByteSize
	cwnd   float64
}

// Controller is the per-flow window manager.
type Controller struct {
	p Params

	cwnd     float64 // bytes
	power    float64 // smoothed normalized power
	lastUpd  units.Time
	nextSend units.Time

	prev    []packet.INTHop // previous telemetry per hop index
	history []sendRec       // cwnd at send time, FIFO by seqEnd

	updates int64
}

var _ transport.CongestionControl = (*Controller)(nil)

// New builds a controller with the window at one BDP.
func New(p Params) *Controller {
	if p.LineRate <= 0 || p.Tau <= 0 {
		panic("powertcp: LineRate and Tau required")
	}
	bdp := float64(units.BandwidthDelayProduct(p.LineRate, p.Tau))
	return &Controller{p: p, cwnd: bdp, power: 1, lastUpd: -1}
}

// NewFactory adapts New to the transport.Factory shape.
func NewFactory(p Params) transport.Factory {
	return func(*transport.Flow) transport.CongestionControl { return New(p) }
}

// Cwnd returns the current window in bytes.
func (c *Controller) Cwnd() units.ByteSize { return units.ByteSize(c.cwnd) }

// Power returns the smoothed normalized power estimate.
func (c *Controller) Power() float64 { return c.power }

// Updates returns how many telemetry-driven window updates have run.
func (c *Controller) Updates() int64 { return c.updates }

// AllowSend implements transport.CongestionControl: window + pacing gate.
func (c *Controller) AllowSend(now units.Time, f *transport.Flow, payload units.ByteSize) (bool, units.Time) {
	wire := payload + c.p.Header
	if float64(f.Inflight()+wire) > c.cwnd && f.Inflight() > 0 {
		return false, 0 // window-limited; wait for an ACK
	}
	if now < c.nextSend {
		return false, c.nextSend
	}
	return true, 0
}

// OnSend implements transport.CongestionControl: records the window for the
// w_old lookup and paces at rate cwnd/τ.
func (c *Controller) OnSend(now units.Time, f *transport.Flow, payload units.ByteSize) {
	wire := payload + c.p.Header
	c.history = append(c.history, sendRec{seqEnd: f.Sent + payload, cwnd: c.cwnd})
	rate := units.BitRate(c.cwnd * 8 / c.p.Tau.Seconds())
	if rate > c.p.LineRate {
		rate = c.p.LineRate
	}
	if rate <= 0 {
		rate = c.p.LineRate / 1000
	}
	start := max(now, c.nextSend)
	c.nextSend = start + units.TransmissionTime(wire, rate)
}

// OnAck implements transport.CongestionControl: the PowerTCP update.
func (c *Controller) OnAck(now units.Time, _ *transport.Flow, ack *packet.Packet) {
	cwndOld := c.popHistory(ack.Seq)
	if len(ack.INT) == 0 {
		return
	}
	gamma, updated := c.normPower(ack.INT)
	if !updated {
		return
	}
	// Smooth over the base RTT.
	dt := c.p.Tau
	if c.lastUpd >= 0 {
		if d := now - c.lastUpd; d < dt {
			dt = d
		}
	}
	w := float64(dt) / float64(c.p.Tau)
	c.power = c.power*(1-w) + gamma*w
	c.lastUpd = now

	newCwnd := c.p.Gamma*(cwndOld/c.power+float64(c.p.Beta)) + (1-c.p.Gamma)*c.cwnd
	c.cwnd = clamp(newCwnd, float64(c.p.MinCwnd), float64(c.p.MaxCwnd))
	c.updates++
}

// OnCNP implements transport.CongestionControl; PowerTCP ignores CNPs.
func (c *Controller) OnCNP(units.Time, *transport.Flow) {}

// popHistory discards records up to the cumulative ack and returns the
// window recorded when the newest acknowledged packet was sent.
func (c *Controller) popHistory(cum units.ByteSize) float64 {
	old := c.cwnd
	n := 0
	for n < len(c.history) && c.history[n].seqEnd <= cum {
		old = c.history[n].cwnd
		n++
	}
	if n > 0 {
		c.history = c.history[n:]
	}
	return old
}

// normPower computes the max normalized power over the telemetry stack,
// differencing against the previous stack of the same path.
func (c *Controller) normPower(stack []packet.INTHop) (float64, bool) {
	if len(c.prev) < len(stack) {
		c.prev = append(c.prev, make([]packet.INTHop, len(stack)-len(c.prev))...)
	}
	maxGamma := 0.0
	updated := false
	tau := c.p.Tau.Seconds()
	for i, h := range stack {
		prev := c.prev[i]
		c.prev[i] = h
		if prev.TS == 0 || h.TS <= prev.TS {
			continue
		}
		dt := (h.TS - prev.TS).Seconds()
		qdot := float64(h.QLen-prev.QLen) / dt            // B/s
		thr := float64(h.TxBytes-prev.TxBytes) / dt       // B/s
		lambda := qdot + thr                              // current
		linkCap := float64(h.Rate) / 8                    // B/s
		bdp := linkCap * tau                              // bytes
		u := float64(h.QLen) + bdp                        // voltage
		gamma := (lambda * u) / (linkCap * linkCap * tau) // normalized power
		if gamma > maxGamma {
			maxGamma = gamma
		}
		updated = true
	}
	if !updated {
		return 0, false
	}
	// Floor the estimate: an idle path (λ≈0) must not divide cwnd by ~0.
	if maxGamma < 0.05 {
		maxGamma = 0.05
	}
	return maxGamma, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
