// Package topology assembles simulated networks: it creates hosts and
// switches, wires their ports, injects link failures, and installs ECMP
// routes. It provides every topology used in the paper's evaluation:
// a single-switch fan-in unit (Fig. 11a), the two-switch collateral-damage
// unit (Fig. 13a), the 2-spine/4-leaf deadlock topology with failed links
// (Fig. 12a), a leaf–spine fabric (§V-B), and a fat-tree (Fig. 15d).
package topology

import (
	"fmt"

	"dsh/internal/core"
	"dsh/internal/eport"
	"dsh/internal/host"
	"dsh/internal/packet"
	"dsh/internal/routing"
	"dsh/internal/sim"
	"dsh/internal/switchdev"
	"dsh/internal/transport"
	"dsh/units"
)

// Scheme selects the headroom allocation scheme for every switch.
type Scheme string

// The two schemes the paper compares.
const (
	SIH Scheme = "SIH"
	DSH Scheme = "DSH"
)

// LinkDelay is the one-way propagation delay of every link (§V-A).
const LinkDelay = 2 * units.Microsecond

// Config carries the build parameters shared by all topologies. Zero values
// take the evaluation defaults (§V-A): Tomahawk-like switches with 16 MB of
// lossless buffer, 8 classes with class 7 reserved for ACK/control, DWRR
// quantum 1600 B, α = 1/16, MTU 1500 B. Every link has LinkDelay.
type Config struct {
	Sim    *sim.Simulator
	Scheme Scheme

	Buffer units.ByteSize
	// BufferPerCapacity, when set and Buffer is zero, sizes each switch's
	// buffer proportionally to its aggregate port capacity (commodity chips
	// hold roughly constant buffering time per bit; Tomahawk's 16 MB across
	// 3.2 Tbps is 40 µs). This keeps reduced-scale experiments faithful to
	// the paper's buffer pressure.
	BufferPerCapacity units.Time
	// BufferFor, when set (and Buffer is zero), decides each switch's
	// buffer from its name, its SIH worst-case reservation, and its
	// aggregate capacity. Experiments use it to preserve the paper's
	// per-role buffer pressure (leaves vs spines) at reduced scale.
	BufferFor func(name string, sihReservation units.ByteSize, capacity units.BitRate) units.ByteSize
	// SIHReservedFraction, when set and Buffer/BufferPerCapacity are zero,
	// sizes each switch's buffer so that the SIH worst-case reservation
	// (private + Nq·η per port, Eq. 3) is exactly this fraction of it.
	// This is the scaling that preserves the paper's headroom *pressure*
	// on smaller switches: the paper's 32-port leaf reserves ~80% of its
	// 16 MB under SIH. Values must be in (0,1).
	SIHReservedFraction float64
	PrivatePerQueue     units.ByteSize
	Alpha               float64
	Classes             int
	AckClass            int
	Quantum             units.ByteSize
	MTU                 units.ByteSize
	Header              units.ByteSize
	// DisablePortLevel is the DSH ablation knob (see core.Config).
	DisablePortLevel bool

	// ECN enables RED marking on switches (DCQCN runs).
	ECN *switchdev.ECNConfig
	// INT enables telemetry stamping (PowerTCP runs).
	INT bool
	// CNPInterval is the receiver NP CNP spacing (DCQCN); 0 disables.
	CNPInterval units.Time

	// OnFlowDone is invoked by hosts when a local flow completes. In a
	// partitioned network (LPWorkers > 0) completions fire on LP worker
	// goroutines: the callback may be invoked concurrently for flows whose
	// sources live in different LPs, and must partition any state it writes
	// by source LP (see Network.LPOfNode) or synchronize it.
	OnFlowDone func(f *transport.Flow)

	// LPWorkers, when positive, partitions the fabric into logical
	// processes (one or more devices per LP, assigned by the builder) that
	// Network.Par runs on this many workers; Sim is the coordinator, whose
	// flow starts and samplers run single-threaded at epoch barriers.
	// Results are deterministic and independent of the worker count, but
	// follow the partitioned (at, lp, seq) event order, which may interleave
	// same-timestamp events differently than a classic run. Zero opens no
	// LPs: every device runs on Sim, the classic engine.
	LPWorkers int

	Seed int64
}

func (c *Config) setDefaults() {
	if c.Sim == nil {
		c.Sim = sim.New()
	}
	if c.Scheme == "" {
		c.Scheme = DSH
	}
	if c.Buffer == 0 && c.BufferPerCapacity == 0 && c.SIHReservedFraction == 0 && c.BufferFor == nil {
		c.Buffer = 16 * units.MB
	}
	if c.PrivatePerQueue == 0 {
		c.PrivatePerQueue = 3 * units.KB
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0 / 16.0
	}
	if c.Classes == 0 {
		c.Classes = packet.NumClasses
	}
	if c.AckClass == 0 {
		c.AckClass = c.Classes - 1
	}
	if c.Quantum == 0 {
		c.Quantum = 1600
	}
	if c.MTU == 0 {
		c.MTU = 1500
	}
	if c.Header == 0 {
		c.Header = 48
	}
}

type endpoint struct{ node, port int }

// Network is an assembled topology ready to carry flows.
type Network struct {
	Sim      *sim.Simulator
	Cfg      Config
	Hosts    []*host.Host
	Switches []*switchdev.Switch
	Links    []routing.Link

	// Pool is the run-wide packet free list shared by every device.
	Pool *packet.Pool

	// UserData is an opaque slot for embedding layers (the public dshsim
	// facade stores its run state here).
	UserData any

	// Par runs the network. Sim is its coordinator; with Cfg.LPWorkers > 0
	// every device runs on its LP's simulator, and with LPWorkers == 0 Par
	// has no LPs and every device runs on Sim — the classic engine.
	Par *sim.Parallel

	peers map[endpoint]endpoint

	// flat is the dense ECMP table built by ComputeRoutes; flowsim walks it
	// to reproduce packet-identical per-flow paths.
	flat *routing.FlatTable

	startAct startFlowAction

	// Per-LP build state: the simulator and packet pool each LP's devices
	// are constructed with, the LP of every host and switch, and the group
	// new devices currently join (see useLP). The classic engine is the one
	// group 0, built on Sim and Pool.
	lpSims   []*sim.Simulator
	lpPools  []*packet.Pool
	hostLP   []int32
	switchLP []int32
	curLP    int
}

// NumNodes returns the size of the node-ID space (hosts then switches).
func (n *Network) NumNodes() int { return len(n.Hosts) + len(n.Switches) }

// SwitchNode returns the node ID of switch index i.
func (n *Network) SwitchNode(i int) int { return len(n.Hosts) + i }

// IsSwitchNode reports whether a node ID belongs to a switch.
func (n *Network) IsSwitchNode(id int) bool { return id >= len(n.Hosts) && id < n.NumNodes() }

// SwitchByNode maps a switch node ID back to the device.
func (n *Network) SwitchByNode(id int) *switchdev.Switch { return n.Switches[id-len(n.Hosts)] }

// Peer returns the (node, port) wired to the given endpoint.
func (n *Network) Peer(node, port int) (peerNode, peerPort int, ok bool) {
	e, ok := n.peers[endpoint{node, port}]
	return e.node, e.port, ok
}

// portOf resolves an endpoint's egress port object.
func (n *Network) portOf(node, port int) *eport.Port {
	if n.IsSwitchNode(node) {
		return n.SwitchByNode(node).Port(port)
	}
	if port != 0 {
		panic(fmt.Sprintf("topology: host %d has only port 0", node))
	}
	return n.Hosts[node].Port()
}

// PortOf resolves an endpoint's egress port object (fault injection flips
// link state and skews latency through it; hosts have only port 0).
func (n *Network) PortOf(node, port int) *eport.Port { return n.portOf(node, port) }

// inputOf resolves an endpoint's receiver.
func (n *Network) inputOf(node, port int) eport.Receiver {
	if n.IsSwitchNode(node) {
		return n.SwitchByNode(node).Input(port)
	}
	return n.Hosts[node].Input()
}

// Partitioned reports whether the network runs on logical processes.
func (n *Network) Partitioned() bool { return n.Par.LPCount() > 0 }

// LPOfNode returns the logical process owning a node (0 when classic).
func (n *Network) LPOfNode(node int) int {
	if n.IsSwitchNode(node) {
		return int(n.switchLP[node-len(n.Hosts)])
	}
	return int(n.hostLP[node])
}

// LPCount returns the number of device groups (1 when classic: the whole
// network is one group on Sim).
func (n *Network) LPCount() int { return len(n.lpSims) }

// SimOf returns the simulator a node's device runs on: its LP's simulator
// in a partitioned network, Sim otherwise. Per-flow machinery that
// schedules on behalf of a source host (congestion-control timers) must use
// the source's simulator.
func (n *Network) SimOf(node int) *sim.Simulator { return n.lpSims[n.LPOfNode(node)] }

// newLPGroup opens a fresh logical process and directs subsequent device
// creation into it, returning its id for later useLP calls. A no-op
// returning 0 on the classic engine, so builders call it unconditionally
// and device creation order is the same on both.
func (n *Network) newLPGroup() int {
	if n.Cfg.LPWorkers <= 0 {
		return 0
	}
	s, idx := n.Par.NewLP()
	n.lpSims = append(n.lpSims, s)
	n.lpPools = append(n.lpPools, packet.NewPool())
	n.curLP = idx
	return idx
}

// useLP directs subsequent device creation into an existing LP group.
func (n *Network) useLP(id int) { n.curLP = id }

// connect wires a full-duplex link between two endpoints and records both
// directions for routing. A link between LPs becomes a mailbox edge: each
// direction's deliveries go through a sim.Remote with the link's
// propagation delay as lookahead, and arriving packets are re-stamped onto
// the receiving LP's pool.
func (n *Network) connect(aNode, aPort, bNode, bPort int) {
	n.portOf(aNode, aPort).Connect(n.inputOf(bNode, bPort))
	n.portOf(bNode, bPort).Connect(n.inputOf(aNode, aPort))
	if la, lb := n.LPOfNode(aNode), n.LPOfNode(bNode); la != lb {
		ra := n.Par.NewRemote(n.lpSims[la], lb, LinkDelay)
		n.portOf(aNode, aPort).ConnectRemote(ra, n.lpPools[lb])
		rb := n.Par.NewRemote(n.lpSims[lb], la, LinkDelay)
		n.portOf(bNode, bPort).ConnectRemote(rb, n.lpPools[la])
	}
	n.peers[endpoint{aNode, aPort}] = endpoint{bNode, bPort}
	n.peers[endpoint{bNode, bPort}] = endpoint{aNode, aPort}
	n.Links = append(n.Links,
		routing.Link{From: aNode, FromPort: aPort, To: bNode, Up: true},
		routing.Link{From: bNode, FromPort: bPort, To: aNode, Up: true},
	)
}

// FailLink marks the link at (node, port) down in both directions. Call
// before ComputeRoutes so routing avoids it.
func (n *Network) FailLink(node, port int) {
	peer, peerPort, ok := n.Peer(node, port)
	if !ok {
		panic(fmt.Sprintf("topology: no link at node %d port %d", node, port))
	}
	n.portOf(node, port).SetUp(false)
	n.portOf(peer, peerPort).SetUp(false)
	for i := range n.Links {
		l := &n.Links[i]
		if (l.From == node && l.FromPort == port) || (l.From == peer && l.FromPort == peerPort) {
			l.Up = false
		}
	}
}

// ComputeRoutes builds the dense ECMP table over the up links and installs
// each switch's view of it. Call after all connect/FailLink calls. Hosts
// are the node-ID prefix 0..H-1, so the flat table needs no destination
// remap (see routing.FlatTable).
func (n *Network) ComputeRoutes() {
	hosts := make([]int, len(n.Hosts))
	for i := range hosts {
		hosts[i] = i
	}
	ft := routing.ComputeFlat(n.NumNodes(), n.Links, hosts)
	n.flat = ft
	for i, sw := range n.Switches {
		sw.SetRoute(ft.Node(n.SwitchNode(i)).Route)
	}
}

// FlatRoutes returns the dense ECMP table installed by ComputeRoutes (nil
// before routes are computed). Flow-level simulation walks it to derive the
// exact per-flow path a packet would take.
func (n *Network) FlatRoutes() *routing.FlatTable { return n.flat }

// StartFlow starts a flow now: it registers receive-side state on the
// destination host and hands the flow to the source host. The flow must
// have its CC assigned.
func (n *Network) StartFlow(f *transport.Flow) {
	n.Hosts[f.Dst].RegisterRecv(f)
	n.Hosts[f.Src].AddFlow(f)
}

// startFlowAction defers StartFlow to the flow's start time without a
// per-flow closure; the flow travels in the event's arg.
type startFlowAction struct{ n *Network }

func (a *startFlowAction) Run(arg any, _ int64) { a.n.StartFlow(arg.(*transport.Flow)) }

// AddFlow schedules a flow: at f.Start the source host begins transmitting.
// The flow must have its CC assigned.
func (n *Network) AddFlow(f *transport.Flow) {
	n.Sim.AtAction(f.Start, &n.startAct, f, 0)
}

// Drops sums lossless admission drops over all switches.
func (n *Network) Drops() int64 {
	var total int64
	for _, sw := range n.Switches {
		total += sw.MMU().Drops()
	}
	return total
}

// WireDrops sums packets lost on down links (serialized into a dead link,
// invalidated mid-flight by a flap, or arriving while down) over every port
// in the network.
func (n *Network) WireDrops() int64 {
	var total int64
	for _, h := range n.Hosts {
		total += h.Port().WireDrops()
	}
	for _, sw := range n.Switches {
		for i := 0; i < sw.Ports(); i++ {
			total += sw.Port(i).WireDrops()
		}
	}
	return total
}

// newNetwork prepares an empty network.
func newNetwork(cfg Config) *Network {
	n := &Network{
		Sim:   cfg.Sim,
		Cfg:   cfg,
		Pool:  packet.NewPool(),
		Par:   sim.NewParallel(cfg.Sim, cfg.LPWorkers),
		peers: make(map[endpoint]endpoint, 64),
	}
	if cfg.LPWorkers <= 0 {
		n.lpSims = []*sim.Simulator{cfg.Sim}
		n.lpPools = []*packet.Pool{n.Pool}
	}
	n.startAct = startFlowAction{n: n}
	return n
}

// newHost appends a host with the given uplink rate; its ID is its index.
func (n *Network) newHost(rate units.BitRate) *host.Host {
	id := len(n.Hosts)
	n.hostLP = append(n.hostLP, int32(n.curLP))
	n.Par.AddLPWeight(n.curLP, 1)
	h := host.New(host.Config{
		Sim:         n.lpSims[n.curLP],
		ID:          id,
		Rate:        rate,
		Prop:        LinkDelay,
		Classes:     n.Cfg.Classes,
		AckClass:    packet.Class(n.Cfg.AckClass),
		MTU:         n.Cfg.MTU,
		Header:      n.Cfg.Header,
		CNPInterval: n.Cfg.CNPInterval,
		OnFlowDone:  n.Cfg.OnFlowDone,
		Pool:        n.lpPools[n.curLP],
	})
	n.Hosts = append(n.Hosts, h)
	return h
}

// newSwitch appends a switch whose port i runs at rates[i]; headroom η is
// sized per port from its rate and the uniform link delay (Eq. 1).
func (n *Network) newSwitch(name string, rates []units.BitRate) *switchdev.Switch {
	cfg := n.Cfg
	n.switchLP = append(n.switchLP, int32(n.curLP))
	// A switch's event load scales with its port count; hosts weigh 1. The
	// hints only seed the engine's initial heaviest-first claim order —
	// measured rebalancing takes over after the first interval.
	n.Par.AddLPWeight(n.curLP, uint64(len(rates)))
	etas := make([]units.ByteSize, len(rates))
	props := make([]units.Time, len(rates))
	var maxEta units.ByteSize
	for i, r := range rates {
		etas[i] = core.RequiredHeadroom(r, LinkDelay, cfg.MTU)
		props[i] = LinkDelay
		if etas[i] > maxEta {
			maxEta = etas[i]
		}
	}
	var capacity units.BitRate
	for _, r := range rates {
		capacity += r
	}
	var reserved units.ByteSize
	nq := units.ByteSize(cfg.Classes - 1) // ACK class exempt
	for _, e := range etas {
		reserved += nq * (cfg.PrivatePerQueue + e)
	}
	buffer := cfg.Buffer
	if buffer == 0 && cfg.BufferFor != nil {
		buffer = cfg.BufferFor(name, reserved, capacity)
	}
	if buffer == 0 && cfg.BufferPerCapacity > 0 {
		buffer = units.BytesInTime(cfg.BufferPerCapacity, capacity)
	}
	if buffer == 0 && cfg.SIHReservedFraction > 0 {
		if cfg.SIHReservedFraction >= 1 {
			panic(fmt.Sprintf("topology: SIHReservedFraction %v must be below 1", cfg.SIHReservedFraction))
		}
		buffer = units.ByteSize(float64(reserved) / cfg.SIHReservedFraction)
	}
	if buffer <= 0 {
		panic(fmt.Sprintf("topology: switch %s has no buffer sizing rule", name))
	}
	mmuCfg := core.Config{
		Ports:            len(rates),
		Classes:          cfg.Classes,
		AckClass:         cfg.AckClass,
		TotalBuffer:      buffer,
		PrivatePerQueue:  cfg.PrivatePerQueue,
		Eta:              maxEta,
		EtaPerPort:       etas,
		Alpha:            cfg.Alpha,
		DisablePortLevel: cfg.DisablePortLevel,
	}
	var mmu core.MMU
	var err error
	switch cfg.Scheme {
	case SIH:
		mmu, err = core.NewSIH(mmuCfg)
	case DSH:
		mmu, err = core.NewDSH(mmuCfg)
	default:
		panic(fmt.Sprintf("topology: unknown scheme %q", cfg.Scheme))
	}
	if err != nil {
		panic(fmt.Sprintf("topology: switch %s: %v", name, err))
	}
	sw := switchdev.New(switchdev.Config{
		Sim:      n.lpSims[n.curLP],
		Name:     name,
		Ports:    len(rates),
		Classes:  cfg.Classes,
		AckClass: cfg.AckClass,
		Quantum:  cfg.Quantum,
		MMU:      mmu,
		ECN:      cfg.ECN,
		INT:      cfg.INT,
		Seed:     cfg.Seed + int64(len(n.Switches))*7919,
		Pool:     n.lpPools[n.curLP],
	}, rates, props)
	n.Switches = append(n.Switches, sw)
	return sw
}

func uniformRates(nports int, rate units.BitRate) []units.BitRate {
	rates := make([]units.BitRate, nports)
	for i := range rates {
		rates[i] = rate
	}
	return rates
}
