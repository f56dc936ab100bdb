// Package host models an RDMA-style NIC endpoint: it injects flow packets
// under congestion control, honours PFC PAUSE frames (queue- and port-
// level), and implements the receiver side (per-packet ACKs with ECN/INT
// echo and DCQCN CNP generation).
//
// The NIC keeps its wire queue shallow — at most one data packet per class
// is handed to the port at a time — so pausing a class stops the flow
// scheduler rather than building an unbounded local queue, matching how
// real NICs schedule queue pairs at wire speed.
package host

import (
	"fmt"

	"dsh/internal/core"
	"dsh/internal/eport"
	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/internal/transport"
	"dsh/units"
)

// Config parameterises a host.
type Config struct {
	Sim  *sim.Simulator
	ID   int
	Name string
	// Rate and Prop describe the uplink.
	Rate units.BitRate
	Prop units.Time
	// Classes is the number of priority classes (8).
	Classes int
	// AckClass carries ACK/CNP traffic with strict priority.
	AckClass packet.Class
	// MTU is the maximum wire size of a data packet (1500 B in the paper).
	MTU units.ByteSize
	// Header is the per-packet overhead inside MTU.
	Header units.ByteSize
	// CNPInterval is the DCQCN NP minimum CNP spacing per flow (50 µs);
	// zero disables CNP generation.
	CNPInterval units.Time
	// OnFlowDone fires when the final ACK of a locally-originated flow
	// arrives.
	OnFlowDone func(f *transport.Flow)
	// Pool recycles packet objects; topologies share one pool across all
	// devices of a run. Nil allocates a private pool.
	Pool *packet.Pool
}

// Flow state is slot-indexed: AddFlow/RegisterRecv hand out dense slots
// whose handles travel inside packets (packet.SrcSlot/DstSlot), so the
// per-packet lookups in handleData/handleAck/handleCNP are array loads.
// A handle packs (slot index << 32 | generation); generations start at 1
// and are bumped when a slot is recycled, so a zero handle never resolves
// and a stale handle is detected instead of aliasing the next flow — the
// same scheme as sim.Timer.
func slotHandle(slot int, gen uint32) int64 { return int64(slot)<<32 | int64(gen) }

func slotOf(handle int64) (slot int, gen uint32) {
	return int(uint64(handle) >> 32), uint32(uint64(handle))
}

// sendSlot is one sender-side slot.
type sendSlot struct {
	flow *transport.Flow
	gen  uint32
}

// recvSlot is one receiver-side slot (held by value; no allocation per
// flow).
type recvSlot struct {
	received units.ByteSize
	lastCNP  units.Time
	gen      uint32
}

// recvState is the map-fallback receiver state for slot-less data packets.
type recvState struct {
	received units.ByteSize
	lastCNP  units.Time
}

// Host is one endpoint. The uplink port is embedded by value, so a host is
// one heap object, port included.
type Host struct {
	cfg  Config
	port eport.Port

	flows []*transport.Flow
	rr    int
	wake  sim.Timer

	// Sender-side flow slots, addressed by packet.SrcSlot handles.
	slots    []sendSlot
	slotFree []int32

	// Receiver-side flow slots, addressed by packet.DstSlot handles, plus
	// the lazily-built fallback for packets that carry no slot.
	recvSlots    []recvSlot
	recvFree     []int32
	recvOverflow map[int]*recvState
	// reorderOK relaxes the stale-slot protocol check: fault scenarios that
	// rewire routes (transient loops) can deliver a flow's packets after its
	// Last recycled the slot, which is impossible on a clean FIFO fabric.
	reorderOK bool

	rxBytes  units.ByteSize
	rxData   units.ByteSize
	sentPkts int64

	pool *packet.Pool

	// Pre-bound event callbacks (allocation-free scheduling).
	wakeAct wakeAction
	pfcAct  pfcAction

	// pfcCh buffers received PFC frames through their processing delay. The
	// delay is constant (per the downlink rate) and frames arrive in link
	// order, so the stream is FIFO — one resident heap event suffices.
	pfcCh sim.Channel

	// in backs Input(); handing out its address avoids boxing a fresh
	// receiver per call.
	in input

	// Inline backing buffers: a host with few concurrent flows (the common
	// case) builds all its flow state without a single heap allocation.
	flowsBuf    [8]*transport.Flow
	slotsBuf    [8]sendSlot
	slotFreeBuf [8]int32
	recvBuf     [16]recvSlot
	recvFreeBuf [16]int32
}

// wakeAction fires the pacing timer set by scheduleWake.
type wakeAction struct{ h *Host }

func (a *wakeAction) Run(any, int64) {
	a.h.wake = sim.Timer{}
	a.h.pump()
}

// pfcAction applies a received PFC frame after the processing delay; the
// frame content travels encoded in n (see packet.FlowControl.Encode).
type pfcAction struct{ h *Host }

func (a *pfcAction) Run(_ any, n int64) {
	fc := packet.DecodeFC(n)
	if fc.PortLevel {
		a.h.port.SetPortPaused(fc.Pause)
	} else {
		a.h.port.SetClassPaused(fc.Class, fc.Pause)
	}
}

// New builds a host. Wire it with Port().Connect(peerInput, peerSim,
// peerPool) and hand Input() to the peer.
func New(cfg Config) *Host {
	if cfg.Sim == nil || cfg.Rate <= 0 {
		panic("host: Sim and Rate are required")
	}
	if cfg.Classes <= 0 {
		cfg.Classes = packet.NumClasses
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.Header < 0 || cfg.Header >= cfg.MTU {
		panic(fmt.Sprintf("host: header %d outside [0, MTU)", cfg.Header))
	}
	if cfg.Pool == nil {
		cfg.Pool = packet.NewPool()
	}
	h := &Host{
		cfg:  cfg,
		pool: cfg.Pool,
	}
	h.wakeAct = wakeAction{h: h}
	h.pfcAct = pfcAction{h: h}
	h.pfcCh.Init(cfg.Sim, &h.pfcAct)
	h.in = input{h: h}
	h.flows = h.flowsBuf[:0]
	h.slots = h.slotsBuf[:0]
	h.slotFree = h.slotFreeBuf[:0]
	h.recvSlots = h.recvBuf[:0]
	h.recvFree = h.recvFreeBuf[:0]
	eport.NewInto(&h.port, eport.Config{
		Sim:         cfg.Sim,
		Rate:        cfg.Rate,
		Prop:        cfg.Prop,
		Classes:     cfg.Classes,
		StrictClass: int(cfg.AckClass),
		Hooks:       h,
	})
	return h
}

// PortIdle implements eport.Hooks: an idle uplink pulls the next packet.
func (h *Host) PortIdle(int) { h.pump() }

// PortDeparture implements eport.Hooks; hosts do no departure accounting.
func (h *Host) PortDeparture(int, *packet.Packet, int64) {}

// PortDequeue implements eport.Hooks; hosts do no dequeue accounting.
func (h *Host) PortDequeue(int, *packet.Packet, units.ByteSize, units.ByteSize) {}

// ID returns the host ID.
func (h *Host) ID() int { return h.cfg.ID }

// Name returns the host name; unnamed hosts format as "h<ID>" on demand,
// so builders need not pay for a name the run never prints.
func (h *Host) Name() string {
	if h.cfg.Name == "" {
		return fmt.Sprintf("h%d", h.cfg.ID)
	}
	return h.cfg.Name
}

// Port returns the uplink egress port for wiring and metrics.
func (h *Host) Port() *eport.Port { return &h.port }

// RxBytes returns total received wire bytes.
func (h *Host) RxBytes() units.ByteSize { return h.rxBytes }

// RxDataBytes returns received data payload bytes.
func (h *Host) RxDataBytes() units.ByteSize { return h.rxData }

// SentPackets returns the number of injected data packets.
func (h *Host) SentPackets() int64 { return h.sentPkts }

// ActiveFlows returns the number of unfinished locally-originated flows.
func (h *Host) ActiveFlows() int { return len(h.flows) }

// input adapts the host to eport.Receiver.
type input struct{ h *Host }

// Receive implements eport.Receiver.
func (in input) Receive(pkt *packet.Packet) { in.h.receive(pkt) }

// Input returns the receiver the downlink peer delivers into; the value is
// embedded in the Host, so the interface conversion does not allocate.
func (h *Host) Input() eport.Receiver { return &h.in }

// MaxPayload returns the payload capacity of one MTU packet.
func (h *Host) MaxPayload() units.ByteSize { return h.cfg.MTU - h.cfg.Header }

// AddFlow registers a flow originating at this host, assigns its sender
// slot (f.SrcSlot), and starts pumping. The flow must have CC set; Start
// should be the current time.
func (h *Host) AddFlow(f *transport.Flow) {
	if f.CC == nil {
		panic("host: flow without congestion controller")
	}
	if f.Src != h.cfg.ID {
		panic(fmt.Sprintf("host %d: flow %d has Src %d", h.cfg.ID, f.ID, f.Src))
	}
	f.FinishedAt = -1
	var slot int
	if n := len(h.slotFree); n > 0 {
		slot = int(h.slotFree[n-1])
		h.slotFree = h.slotFree[:n-1]
	} else {
		h.slots = append(h.slots, sendSlot{gen: 1})
		slot = len(h.slots) - 1
	}
	h.slots[slot].flow = f
	f.SrcSlot = slotHandle(slot, h.slots[slot].gen)
	h.flows = append(h.flows, f)
	h.pump()
}

// RegisterRecv allocates receive-side state for a flow destined to this
// host and stamps f.DstSlot. The slot is recycled when the flow's final
// data packet arrives. Flows started without registration (or hand-built
// packets) carry a zero DstSlot and use the map fallback instead.
func (h *Host) RegisterRecv(f *transport.Flow) {
	if f.Dst != h.cfg.ID {
		panic(fmt.Sprintf("host %d: flow %d has Dst %d", h.cfg.ID, f.ID, f.Dst))
	}
	var slot int
	if n := len(h.recvFree); n > 0 {
		slot = int(h.recvFree[n-1])
		h.recvFree = h.recvFree[:n-1]
	} else {
		h.recvSlots = append(h.recvSlots, recvSlot{gen: 1})
		slot = len(h.recvSlots) - 1
	}
	e := &h.recvSlots[slot]
	e.received = 0
	e.lastCNP = -1
	f.DstSlot = slotHandle(slot, e.gen)
}

// flowBySlot resolves a sender-slot handle; zero or stale handles return
// nil (the flow completed and its slot was recycled).
func (h *Host) flowBySlot(handle int64) *transport.Flow {
	slot, gen := slotOf(handle)
	if gen == 0 || slot < 0 || slot >= len(h.slots) {
		return nil
	}
	if e := &h.slots[slot]; e.gen == gen {
		return e.flow
	}
	return nil
}

// freeGen bumps a recycled slot's generation, skipping the reserved 0.
func freeGen(gen uint32) uint32 {
	gen++
	if gen == 0 {
		gen = 1
	}
	return gen
}

// pump tries to inject the next data packet. It is invoked whenever
// eligibility may have changed: port idle, ACK/CNP arrival, PFC resume,
// pacing timer, or a new flow.
func (h *Host) pump() {
	if h.port.Transmitting() || len(h.flows) == 0 {
		return
	}
	now := h.cfg.Sim.Now()
	var minRetry units.Time = -1
	n := len(h.flows)
	for i := 0; i < n; i++ {
		idx := (h.rr + i) % n
		f := h.flows[idx]
		if f.Remaining() == 0 {
			continue // fully sent, waiting for ACKs
		}
		if h.port.ClassPaused(f.Class) || h.port.ClassBacklog(f.Class) > 0 {
			continue
		}
		payload := min(f.Remaining(), h.MaxPayload())
		ok, retry := f.CC.AllowSend(now, f, payload)
		if !ok {
			if retry > now && (minRetry < 0 || retry < minRetry) {
				minRetry = retry
			}
			continue
		}
		pkt := h.pool.Data(f.ID, f.Src, f.Dst, f.Class, f.Sent, payload, h.cfg.Header)
		pkt.SrcSlot = f.SrcSlot
		pkt.DstSlot = f.DstSlot
		pkt.ECNCapable = true
		pkt.SentAt = now
		pkt.Last = f.Sent+payload == f.Size
		f.Sent += payload
		f.CC.OnSend(now, f, payload)
		h.sentPkts++
		h.rr = (idx + 1) % n
		h.port.Enqueue(pkt, 0)
		return
	}
	if minRetry >= 0 {
		h.scheduleWake(minRetry)
	}
}

func (h *Host) scheduleWake(at units.Time) {
	if h.wake.Active() && h.wake.At() <= at {
		return
	}
	h.wake.Cancel()
	h.wake = h.cfg.Sim.AtAction(at, &h.wakeAct, nil, 0)
}

// receive is the downlink pipeline.
func (h *Host) receive(pkt *packet.Packet) {
	h.rxBytes += pkt.Size
	switch pkt.Type {
	case packet.PFC:
		h.handlePFC(pkt)
	case packet.Data:
		h.handleData(pkt)
	case packet.Ack:
		h.handleAck(pkt)
	case packet.CNP:
		h.handleCNP(pkt)
	default:
		panic(fmt.Sprintf("host %d: unknown packet type %v", h.cfg.ID, pkt.Type))
	}
}

func (h *Host) handlePFC(pkt *packet.Packet) {
	n := pkt.FC.Encode()
	pkt.Release()
	h.pfcCh.Push(core.PFCProcessingDelay(h.cfg.Rate), nil, n)
}

func (h *Host) handleData(pkt *packet.Packet) {
	h.rxData += pkt.Payload
	if pkt.DstSlot != 0 {
		slot, gen := slotOf(pkt.DstSlot)
		if slot < 0 || slot >= len(h.recvSlots) || h.recvSlots[slot].gen != gen {
			if !h.reorderOK {
				// No retransmissions exist, so data addressed to a recycled
				// slot is a protocol violation, not a late duplicate.
				panic(fmt.Sprintf("host %d: stale receive slot on %v", h.cfg.ID, pkt))
			}
			// A routing-loop fault delivered this straggler after the flow's
			// Last recycled its slot; count it through the overflow path so
			// accounting stays conserved (the flow itself cannot complete —
			// its cumulative count was lost with the slot, which is the
			// honest outcome of reordering a transport with no retransmit).
			h.handleOverflowData(pkt)
			return
		}
		e := &h.recvSlots[slot]
		e.received += pkt.Payload
		h.emitAck(pkt, e.received, &e.lastCNP)
		if pkt.Last { // flow fully received; recycle the slot
			e.gen = freeGen(e.gen)
			h.recvFree = append(h.recvFree, int32(slot))
		}
	} else {
		h.handleOverflowData(pkt)
		return
	}
	pkt.Release()
}

// handleOverflowData accounts a data packet through the FlowID-keyed map:
// the slow path for flows that outgrew the slot table, and the landing spot
// for fault-reordered stragglers whose slot was already recycled.
func (h *Host) handleOverflowData(pkt *packet.Packet) {
	rs := h.recvOverflow[pkt.FlowID]
	if rs == nil {
		if h.recvOverflow == nil {
			h.recvOverflow = make(map[int]*recvState)
		}
		rs = &recvState{lastCNP: -1}
		h.recvOverflow[pkt.FlowID] = rs
	}
	rs.received += pkt.Payload
	h.emitAck(pkt, rs.received, &rs.lastCNP)
	if pkt.Last {
		delete(h.recvOverflow, pkt.FlowID)
	}
	pkt.Release()
}

// AllowReorder relaxes the stale-slot protocol check for runs whose fault
// scenario can reorder deliveries (routing-loop rewires). Clean runs keep
// the strict invariant.
func (h *Host) AllowReorder() { h.reorderOK = true }

// emitAck enqueues the cumulative ACK for a data packet and, when the
// packet carries a CE mark, a rate-limited CNP.
func (h *Host) emitAck(pkt *packet.Packet, cum units.ByteSize, lastCNP *units.Time) {
	ack := h.pool.Ack(pkt, cum, h.cfg.AckClass)
	h.port.Enqueue(ack, 0)
	if pkt.ECNMarked && h.cfg.CNPInterval > 0 {
		now := h.cfg.Sim.Now()
		if *lastCNP < 0 || now-*lastCNP >= h.cfg.CNPInterval {
			*lastCNP = now
			cnp := h.pool.CNP(pkt.FlowID, pkt.Dst, pkt.Src, h.cfg.AckClass)
			cnp.SrcSlot = pkt.SrcSlot
			h.port.Enqueue(cnp, 0)
		}
	}
}

func (h *Host) handleAck(pkt *packet.Packet) {
	f := h.flowBySlot(pkt.SrcSlot)
	if f == nil {
		pkt.Release()
		return // flow already completed (stale slot) or slot-less test ACK
	}
	if pkt.Seq > f.Acked {
		f.Acked = pkt.Seq
	}
	now := h.cfg.Sim.Now()
	f.CC.OnAck(now, f, pkt)
	last := pkt.Last
	pkt.Release()
	if last && f.Acked >= f.Size {
		f.FinishedAt = now
		h.removeFlow(f)
		if h.cfg.OnFlowDone != nil {
			h.cfg.OnFlowDone(f)
		}
	}
	h.pump()
}

func (h *Host) handleCNP(pkt *packet.Packet) {
	// A CNP can legitimately trail the final ACK (it rides the same class
	// behind it), so a stale slot is silently ignored.
	if f := h.flowBySlot(pkt.SrcSlot); f != nil {
		f.CC.OnCNP(h.cfg.Sim.Now(), f)
	}
	pkt.Release()
}

func (h *Host) removeFlow(f *transport.Flow) {
	if slot, gen := slotOf(f.SrcSlot); gen != 0 && slot < len(h.slots) && h.slots[slot].gen == gen {
		e := &h.slots[slot]
		e.flow = nil
		e.gen = freeGen(e.gen)
		h.slotFree = append(h.slotFree, int32(slot))
	}
	f.SrcSlot = 0
	for i, g := range h.flows {
		if g == f {
			last := len(h.flows) - 1
			h.flows[i] = h.flows[last]
			h.flows[last] = nil
			h.flows = h.flows[:last]
			if h.rr > last {
				h.rr = 0
			}
			return
		}
	}
}
