// Package switchdev models a shared-memory output-queued switch: ingress
// admission through the core MMU (SIH or DSH headroom scheme), egress
// per-class queues with DWRR scheduling, PFC frame generation and handling,
// RED/ECN marking for DCQCN, and INT telemetry stamping for PowerTCP.
package switchdev

import (
	"fmt"
	"math/rand"

	"dsh/internal/core"
	"dsh/internal/eport"
	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

// Route decides the egress port for a routed packet entering on inPort.
type Route func(pkt *packet.Packet, inPort int) int

// ECNConfig enables RED-style ECN marking on egress queues (the DCQCN
// congestion point). A packet is marked with probability 0 below KMin,
// PMax·(q−KMin)/(KMax−KMin) between the knees, and 1 above KMax.
type ECNConfig struct {
	KMin units.ByteSize
	KMax units.ByteSize
	PMax float64
}

// Config parameterises a switch.
type Config struct {
	Sim  *sim.Simulator
	Name string
	// Ports is the port count; every port must be wired before traffic.
	Ports int
	// Classes is the number of priority classes (8).
	Classes int
	// AckClass is the strict-priority class (−1 to disable).
	AckClass int
	// Quantum is the egress DWRR quantum.
	Quantum units.ByteSize
	// MMU is the ingress buffer manager (core.NewSIH / core.NewDSH).
	MMU core.MMU
	// ECN, when non-nil, enables marking.
	ECN *ECNConfig
	// INT enables PowerTCP telemetry stamping at dequeue.
	INT bool
	// Seed seeds the switch-local RNG (ECN coin flips).
	Seed int64
	// Pool recycles packet objects; topologies share one pool across all
	// devices of a run. Nil allocates a private pool.
	Pool *packet.Pool
}

// Switch is one device. All methods run on the simulator goroutine.
type Switch struct {
	cfg    Config
	eports []*eport.Port
	inputs []input
	route  Route
	rng    *rand.Rand

	// charged tracks buffered bytes by (ingress, egress) port pair (row-
	// major, stride Ports), used by the deadlock detector's wait-for graph.
	charged []units.ByteSize

	// rxBytes counts received routed bytes per ingress port.
	rxBytes []units.ByteSize
	marks   int64

	pool *packet.Pool

	// pfcAct is the pre-bound callback applying received PFC frames
	// (allocation-free scheduling).
	pfcAct swPFCAction

	// pfcChs buffers received PFC frames through their processing delay,
	// one channel per ingress port: the delay is constant per port rate and
	// frames arrive in link order, so each stream is FIFO and holds one
	// resident heap event regardless of how deep a pause storm gets.
	pfcChs []sim.Channel
}

// swPFCAction applies a received PFC frame to an ingress port's egress side
// after the processing delay. n carries the FlowControl in its low 16 bits
// (packet.FlowControl.Encode) and the ingress port above them.
type swPFCAction struct{ sw *Switch }

func (a *swPFCAction) Run(_ any, n int64) {
	p := a.sw.eports[n>>16]
	fc := packet.DecodeFC(n)
	if fc.PortLevel {
		p.SetPortPaused(fc.Pause)
	} else {
		p.SetClassPaused(fc.Class, fc.Pause)
	}
}

// New builds a switch. Ports are created immediately; wire them with
// Port(i).Connect(...) and deliver into the switch with Input(i).
func New(cfg Config, rates []units.BitRate, props []units.Time) *Switch {
	if cfg.Sim == nil || cfg.MMU == nil {
		panic("switchdev: Sim and MMU are required")
	}
	if cfg.Ports <= 0 || len(rates) != cfg.Ports || len(props) != cfg.Ports {
		panic(fmt.Sprintf("switchdev: %d ports need %d rates/props", cfg.Ports, cfg.Ports))
	}
	if cfg.Classes <= 0 {
		cfg.Classes = packet.NumClasses
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1600
	}
	if cfg.Pool == nil {
		cfg.Pool = packet.NewPool()
	}
	ports := make([]eport.Port, cfg.Ports)
	sw := &Switch{
		cfg:     cfg,
		eports:  make([]*eport.Port, cfg.Ports),
		inputs:  make([]input, cfg.Ports),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		charged: make([]units.ByteSize, cfg.Ports*cfg.Ports),
		rxBytes: make([]units.ByteSize, cfg.Ports),
		pfcChs:  make([]sim.Channel, cfg.Ports),
		pool:    cfg.Pool,
	}
	sw.pfcAct = swPFCAction{sw: sw}
	for i := range sw.pfcChs {
		sw.pfcChs[i].Init(cfg.Sim, &sw.pfcAct)
	}
	for i := 0; i < cfg.Ports; i++ {
		sw.inputs[i] = input{sw: sw, port: i}
		sw.eports[i] = &ports[i]
		eport.NewInto(&ports[i], eport.Config{
			Sim:         cfg.Sim,
			Rate:        rates[i],
			Prop:        props[i],
			Classes:     cfg.Classes,
			Quantum:     cfg.Quantum,
			StrictClass: cfg.AckClass,
			Hooks:       sw,
			HookID:      i,
		})
	}
	return sw
}

// Name returns the configured switch name.
func (sw *Switch) Name() string { return sw.cfg.Name }

// MMU exposes the buffer manager (metrics, tests).
func (sw *Switch) MMU() core.MMU { return sw.cfg.MMU }

// Ports returns the port count.
func (sw *Switch) Ports() int { return sw.cfg.Ports }

// Port returns egress port i for wiring and inspection.
func (sw *Switch) Port(i int) *eport.Port { return sw.eports[i] }

// SetRoute installs the forwarding function.
func (sw *Switch) SetRoute(r Route) { sw.route = r }

// Route returns the installed forwarding function (fault injection wraps and
// later restores it).
func (sw *Switch) Route() Route { return sw.route }

// Marks returns the number of ECN-marked packets.
func (sw *Switch) Marks() int64 { return sw.marks }

// RxBytes returns routed bytes received on a port.
func (sw *Switch) RxBytes(port int) units.ByteSize { return sw.rxBytes[port] }

// ChargedBytes returns buffered bytes that entered on ingress port in and
// wait in egress port out.
func (sw *Switch) ChargedBytes(in, out int) units.ByteSize {
	return sw.charged[in*sw.cfg.Ports+out]
}

// input adapts one ingress port to the eport.Receiver interface.
type input struct {
	sw   *Switch
	port int
}

// Receive implements eport.Receiver.
func (in input) Receive(pkt *packet.Packet) { in.sw.receive(in.port, pkt) }

// Input returns the receiver the upstream device delivers into for port i.
// The receivers are slab-allocated at New, so the interface conversion here
// does not allocate.
func (sw *Switch) Input(i int) eport.Receiver { return &sw.inputs[i] }

const (
	cookieClassBits = 4
	cookieClassMask = (1 << cookieClassBits) - 1
)

func cookie(inPort int, cls packet.Class) int64 {
	return int64(inPort)<<cookieClassBits | int64(cls)
}

func cookiePort(c int64) int           { return int(c >> cookieClassBits) }
func cookieClass(c int64) packet.Class { return packet.Class(c & cookieClassMask) }

// receive is the ingress pipeline.
func (sw *Switch) receive(inPort int, pkt *packet.Packet) {
	if pkt.Type == packet.PFC {
		sw.handlePFC(inPort, pkt)
		return
	}
	if sw.route == nil {
		panic(fmt.Sprintf("switchdev[%s]: no route installed", sw.cfg.Name))
	}
	sw.rxBytes[inPort] += pkt.Size
	out := sw.route(pkt, inPort)
	if out < 0 || out >= sw.cfg.Ports {
		panic(fmt.Sprintf("switchdev[%s]: route returned invalid port %d", sw.cfg.Name, out))
	}
	ok, acts := sw.cfg.MMU.Admit(inPort, pkt.Class, pkt.Size)
	sw.emit(acts)
	if !ok {
		pkt.Release() // dropped; counted by the MMU
		return
	}
	if sw.cfg.ECN != nil && pkt.Type == packet.Data && pkt.ECNCapable && !pkt.ECNMarked {
		sw.maybeMark(pkt, out)
	}
	sw.charged[inPort*sw.cfg.Ports+out] += pkt.Size
	sw.eports[out].Enqueue(pkt, cookie(inPort, pkt.Class))
}

// handlePFC applies a received PAUSE/RESUME to this port's egress side after
// the PFC-standard processing delay (3840 B at port rate).
func (sw *Switch) handlePFC(inPort int, pkt *packet.Packet) {
	rate := sw.eports[inPort].Rate()
	n := pkt.FC.Encode() | int64(inPort)<<16
	pkt.Release()
	sw.pfcChs[inPort].Push(core.PFCProcessingDelay(rate), nil, n)
}

// PortDeparture implements eport.Hooks: it un-charges the packet from the
// MMU when its last bit leaves.
func (sw *Switch) PortDeparture(out int, pkt *packet.Packet, ck int64) {
	if pkt.Type == packet.PFC {
		return
	}
	in := cookiePort(ck)
	sw.charged[in*sw.cfg.Ports+out] -= pkt.Size
	acts := sw.cfg.MMU.Release(in, cookieClass(ck), pkt.Size)
	sw.emit(acts)
}

// PortIdle implements eport.Hooks; a switch has no work to inject.
func (sw *Switch) PortIdle(int) {}

// PortDequeue implements eport.Hooks: it stamps INT telemetry when enabled.
func (sw *Switch) PortDequeue(out int, pkt *packet.Packet, qlen, tx units.ByteSize) {
	if !sw.cfg.INT || pkt.Type != packet.Data {
		return
	}
	if len(pkt.INT) >= packet.MaxINTHops {
		return
	}
	p := sw.eports[out]
	pkt.INT = append(pkt.INT, packet.INTHop{
		QLen:    qlen,
		TxBytes: tx,
		TS:      sw.cfg.Sim.Now(),
		Rate:    p.Rate(),
	})
}

// emit converts MMU actions into PFC frames sent out of the ingress port's
// egress side (back to the upstream device).
func (sw *Switch) emit(acts []core.Action) {
	for _, a := range acts {
		var frame *packet.Packet
		if a.PortLevel {
			frame = sw.pool.PortPFC(a.Pause)
		} else {
			frame = sw.pool.PFC(a.Class, a.Pause)
		}
		sw.eports[a.Port].EnqueueControl(frame)
	}
}

// maybeMark applies RED marking against the egress class backlog.
func (sw *Switch) maybeMark(pkt *packet.Packet, out int) {
	q := sw.eports[out].ClassBacklog(pkt.Class)
	e := sw.cfg.ECN
	switch {
	case q <= e.KMin:
		return
	case q >= e.KMax:
		pkt.ECNMarked = true
	default:
		p := e.PMax * float64(q-e.KMin) / float64(e.KMax-e.KMin)
		if sw.rng.Float64() < p {
			pkt.ECNMarked = true
		}
	}
	if pkt.ECNMarked {
		sw.marks++
	}
}
