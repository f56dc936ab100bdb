// Package transport defines the flow abstraction carried over the simulated
// network and the congestion-control interface implemented by DCQCN
// (internal/transport/dcqcn), PowerTCP (internal/transport/powertcp), and
// the uncontrolled line-rate sender in this package.
package transport

import (
	"dsh/internal/packet"
	"dsh/units"
)

// Flow is one unidirectional transfer between two hosts. The host NIC
// mutates the progress fields; congestion controllers keep their own state.
type Flow struct {
	ID    int
	Src   int
	Dst   int
	Class packet.Class
	// Size is the payload size to transfer.
	Size units.ByteSize
	// Start is the flow's arrival time.
	Start units.Time
	// Tag categorises the flow for metrics ("background", "fanin", ...).
	Tag string

	// TagID is Tag interned to a small integer by metrics.FCTCollector at
	// experiment setup; zero means "not interned" and the collector falls
	// back to the string tag.
	TagID int32

	// SrcSlot and DstSlot are the flow's generation-checked slot handles on
	// its source and destination hosts (see internal/host). They are
	// assigned when the flow starts (host.AddFlow / host.RegisterRecv) and
	// stamped onto every packet; zero before start and after completion.
	SrcSlot, DstSlot int64

	// Sent and Acked track payload progress.
	Sent  units.ByteSize
	Acked units.ByteSize
	// FinishedAt is when the sender received the final ACK; <0 while running.
	FinishedAt units.Time

	// CC is the flow's congestion controller.
	CC CongestionControl
}

// Remaining returns the unsent payload.
func (f *Flow) Remaining() units.ByteSize { return f.Size - f.Sent }

// Inflight returns sent-but-unacknowledged payload bytes.
func (f *Flow) Inflight() units.ByteSize { return f.Sent - f.Acked }

// Done reports whether the final ACK has been received.
func (f *Flow) Done() bool { return f.FinishedAt >= 0 }

// FCT returns the flow completion time; it is only meaningful once Done.
func (f *Flow) FCT() units.Time { return f.FinishedAt - f.Start }

// CongestionControl is the per-flow sender-side control loop.
//
// The host NIC consults AllowSend before injecting each packet. A controller
// reports (false, 0) to wait for the next ACK/CNP event, or (false, t) to be
// retried at time t (rate pacing).
type CongestionControl interface {
	// AllowSend reports whether the flow may inject a packet of the given
	// payload size now.
	AllowSend(now units.Time, f *Flow, payload units.ByteSize) (ok bool, retryAt units.Time)
	// OnSend observes an injection of payload bytes.
	OnSend(now units.Time, f *Flow, payload units.ByteSize)
	// OnAck observes an acknowledgement (with echoed ECN/INT state).
	OnAck(now units.Time, f *Flow, ack *packet.Packet)
	// OnCNP observes a DCQCN congestion notification.
	OnCNP(now units.Time, f *Flow)
}

// LineRate is the "no congestion control" sender: it always allows sending,
// so the flow is paced purely by the NIC serialization rate (and PFC).
type LineRate struct{}

// NewLineRate returns a stateless line-rate controller usable by any number
// of flows.
func NewLineRate() *LineRate { return &LineRate{} }

// AllowSend implements CongestionControl.
func (*LineRate) AllowSend(units.Time, *Flow, units.ByteSize) (bool, units.Time) { return true, 0 }

// OnSend implements CongestionControl.
func (*LineRate) OnSend(units.Time, *Flow, units.ByteSize) {}

// OnAck implements CongestionControl.
func (*LineRate) OnAck(units.Time, *Flow, *packet.Packet) {}

// OnCNP implements CongestionControl.
func (*LineRate) OnCNP(units.Time, *Flow) {}

// RateLimited paces a flow at a fixed bit rate, independent of ACK clocking.
// The hybrid fidelity mode (dshsim) uses it to stitch flow-level boundary
// flows into a packet-level hotspot re-simulation: the boundary flow's
// average rate from the flow-level pass becomes its injection rate here, so
// it exerts the right load on shared links without its own control loop.
type RateLimited struct {
	rate units.BitRate
	next units.Time
}

// NewRateLimited returns a pacer capped at rate; a non-positive rate means
// uncapped (line-rate) sending.
func NewRateLimited(rate units.BitRate) *RateLimited { return &RateLimited{rate: rate} }

// AllowSend implements CongestionControl: packets are released on a token
// schedule derived from the configured rate.
func (r *RateLimited) AllowSend(now units.Time, _ *Flow, _ units.ByteSize) (bool, units.Time) {
	if r.rate <= 0 || now >= r.next {
		return true, 0
	}
	return false, r.next
}

// OnSend implements CongestionControl: the next packet is eligible one
// payload serialization (at the capped rate) after this one.
func (r *RateLimited) OnSend(now units.Time, _ *Flow, payload units.ByteSize) {
	if r.rate > 0 {
		r.next = now + units.TransmissionTime(payload, r.rate)
	}
}

// OnAck implements CongestionControl.
func (*RateLimited) OnAck(units.Time, *Flow, *packet.Packet) {}

// OnCNP implements CongestionControl.
func (*RateLimited) OnCNP(units.Time, *Flow) {}

// Factory builds a controller per flow. Implementations typically capture
// the simulator and link parameters.
type Factory func(f *Flow) CongestionControl

// FlowPool is a single-goroutine free list of Flows. With flows
// materialized lazily at their start time (see dshsim.Run) and returned
// here after the completion callback, steady-state flow churn allocates
// only up to the peak number of concurrently live flows.
type FlowPool struct {
	free []*Flow
}

// flowSlabSize is how many Flows one free-list refill allocates; warming
// an empty pool costs one allocation per slab, not one per flow.
const flowSlabSize = 32

// Get returns a zeroed flow owned by the caller.
func (p *FlowPool) Get() *Flow {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*f = Flow{}
		return f
	}
	slab := make([]Flow, flowSlabSize)
	if cap(p.free) < len(p.free)+flowSlabSize {
		free := make([]*Flow, len(p.free), len(p.free)+flowSlabSize)
		copy(free, p.free)
		p.free = free
	}
	for i := 1; i < flowSlabSize; i++ {
		p.free = append(p.free, &slab[i])
	}
	return &slab[0]
}

// Put recycles a flow. The caller must hold the only live reference: after
// Put the object may be handed out again by Get, so any retained *Flow
// (e.g. inside a completion hook) is invalid.
func (p *FlowPool) Put(f *Flow) { p.free = append(p.free, f) }
