// Package dshsim is the public API of the DSH reproduction: it assembles
// simulated PFC-enabled datacenter networks (via the internal packet-level
// simulator), attaches a transport (none / DCQCN / PowerTCP), runs a flow
// schedule, and reports the paper's metrics.
//
// Quick start:
//
//	cfg := dshsim.NetworkConfig{Scheme: dshsim.DSH}
//	net := dshsim.NewSingleSwitch(cfg, 18, 100*units.Gbps)
//	res := dshsim.Run(net, dshsim.RunConfig{
//	    Duration:  5 * units.Millisecond,
//	    Specs:     specs, // e.g. from dshsim.Incast / dshsim.Background
//	})
//	fmt.Println(res.FCT.Avg("fanin"))
package dshsim

import (
	"fmt"

	"dsh/internal/eport"
	"dsh/internal/fault"
	"dsh/internal/metrics"
	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/internal/switchdev"
	"dsh/internal/topology"
	"dsh/internal/transport"
	"dsh/internal/transport/dcqcn"
	"dsh/internal/transport/powertcp"
	"dsh/internal/workload"
	"dsh/units"
)

// Scheme selects the headroom allocation scheme.
type Scheme = topology.Scheme

// The two schemes the paper compares.
const (
	SIH = topology.SIH
	DSH = topology.DSH
)

// TransportKind selects the congestion control algorithm.
type TransportKind string

// Supported transports.
const (
	// TransportNone sends at line rate (PFC is the only brake).
	TransportNone TransportKind = "none"
	// TransportDCQCN enables switch ECN marking, receiver CNPs, and the
	// DCQCN rate controller.
	TransportDCQCN TransportKind = "dcqcn"
	// TransportPowerTCP enables switch INT stamping and the PowerTCP
	// window controller.
	TransportPowerTCP TransportKind = "powertcp"
)

// Network re-exports the assembled topology type.
type Network = topology.Network

// NetworkConfig mirrors the knobs of the §V evaluation.
type NetworkConfig struct {
	// Scheme is the headroom scheme (default DSH).
	Scheme Scheme
	// Transport decides the switch features (ECN marking for DCQCN, INT
	// stamping for PowerTCP) and which controller flows get in Run.
	Transport TransportKind
	// Buffer is the per-switch lossless pool (default 16 MB when
	// BufferPerCapacity is also zero).
	Buffer units.ByteSize
	// BufferPerCapacity sizes each switch's buffer proportionally to its
	// aggregate port capacity when Buffer is zero (e.g. 40 µs ≈ Tomahawk).
	BufferPerCapacity units.Time
	// SIHReservedFraction sizes each switch's buffer so the SIH worst-case
	// reservation is this fraction of it (the paper's 32-port Tomahawk
	// leaf: ~0.84). Used when Buffer and BufferPerCapacity are zero.
	SIHReservedFraction float64

	// bufferHook is the experiments' role-aware buffer sizing (unexported;
	// reachable only from this package).
	bufferHook func(name string, sihReservation units.ByteSize, capacity units.BitRate) units.ByteSize
	// Alpha is the DT parameter (default 1/16).
	Alpha float64
	// DisablePortLevel is the DSH ablation knob: it removes the port-level
	// flow control and insurance headroom, demonstrating they are required
	// for losslessness (see the ablation experiments).
	DisablePortLevel bool
	// LPWorkers, when positive, partitions the network into logical
	// processes (one per switch-plus-attached-hosts group, assigned by the
	// topology builder) and executes the run on the epoch-barrier parallel
	// engine with this many workers. Results are deterministic and
	// independent of the worker count; they follow the partitioned
	// (at, lp, seq) event order, which can interleave same-timestamp events
	// differently than a classic run (see DESIGN.md §8). Zero opens no
	// LPs: every device shares one heap, the classic engine.
	LPWorkers int
	// Faults attaches a fault script to every run on this network
	// (RunConfig.Faults overrides it per run). Nil injects nothing and the
	// run is bit-identical to a network built without this field.
	Faults *FaultScenario
	// Seed drives every random choice (ECN coin flips).
	Seed int64
}

// build converts the public config into the internal topology config.
func (nc NetworkConfig) build(s *sim.Simulator, done func(*transport.Flow)) topology.Config {
	cfg := topology.Config{
		Sim:                 s,
		Scheme:              nc.Scheme,
		Buffer:              nc.Buffer,
		BufferPerCapacity:   nc.BufferPerCapacity,
		SIHReservedFraction: nc.SIHReservedFraction,
		BufferFor:           nc.bufferHook,
		Alpha:               nc.Alpha,
		DisablePortLevel:    nc.DisablePortLevel,
		LPWorkers:           nc.LPWorkers,
		Seed:                nc.Seed,

		OnFlowDone: done,
	}
	switch nc.Transport {
	case TransportDCQCN:
		cfg.ECN = &switchdev.ECNConfig{KMin: 100 * units.KB, KMax: 400 * units.KB, PMax: 0.2}
		cfg.CNPInterval = 50 * units.Microsecond
	case TransportPowerTCP:
		cfg.INT = true
	case TransportNone, "":
	default:
		panic(fmt.Sprintf("dshsim: unknown transport %q", nc.Transport))
	}
	return cfg
}

// baseRTT is the fabric base RTT: PowerTCP's τ, DCQCN's window cap, and the
// fluid engine's convergence window.
const baseRTT = 16 * units.Microsecond

// runState carries the deferred flow-done hook between New* and Run; it
// lives in the network's UserData slot.
type runState struct {
	done func(*transport.Flow)
	nc   NetworkConfig
	ran  bool
}

func newNet(nc NetworkConfig, build func(topology.Config) *Network) *Network {
	s := sim.New()
	st := &runState{nc: nc}
	cfg := nc.build(s, func(f *transport.Flow) {
		if st.done != nil {
			st.done(f)
		}
	})
	n := build(cfg)
	n.UserData = st
	return n
}

// NewSingleSwitch builds the Fig. 11a unit: one switch, one host per port.
func NewSingleSwitch(nc NetworkConfig, hosts int, rate units.BitRate) *Network {
	return newNet(nc, func(cfg topology.Config) *Network {
		return topology.SingleSwitch(cfg, hosts, rate)
	})
}

// CollateralDamage re-exports the Fig. 13a unit.
type CollateralDamage = topology.CollateralDamage

// NewCollateralUnit builds the Fig. 13a unit.
func NewCollateralUnit(nc NetworkConfig, fanIn int, rate units.BitRate) *CollateralDamage {
	var cd *CollateralDamage
	newNet(nc, func(cfg topology.Config) *Network {
		cd = topology.CollateralUnit(cfg, fanIn, rate)
		return cd.Network
	})
	return cd
}

// DeadlockTopo re-exports the Fig. 12a topology.
type DeadlockTopo = topology.DeadlockTopo

// NewDeadlock builds the Fig. 12a topology (failed links included).
func NewDeadlock(nc NetworkConfig, hostsPerLeaf int, downRate, upRate units.BitRate) *DeadlockTopo {
	var dt *DeadlockTopo
	newNet(nc, func(cfg topology.Config) *Network {
		dt = topology.Deadlock(cfg, hostsPerLeaf, downRate, upRate)
		return dt.Network
	})
	return dt
}

// LeafSpineTopo re-exports the §V-B fabric.
type LeafSpineTopo = topology.LeafSpineTopo

// NewLeafSpine builds a leaf–spine fabric.
func NewLeafSpine(nc NetworkConfig, leaves, spines, hostsPerLeaf int, downRate, upRate units.BitRate) *LeafSpineTopo {
	var ls *LeafSpineTopo
	newNet(nc, func(cfg topology.Config) *Network {
		ls = topology.LeafSpine(cfg, leaves, spines, hostsPerLeaf, downRate, upRate)
		return ls.Network
	})
	return ls
}

// FatTreeTopo re-exports the fat-tree.
type FatTreeTopo = topology.FatTreeTopo

// NewFatTree builds a k-ary fat-tree.
func NewFatTree(nc NetworkConfig, k int, rate units.BitRate) *FatTreeTopo {
	var ft *FatTreeTopo
	newNet(nc, func(cfg topology.Config) *Network {
		ft = topology.FatTree(cfg, k, rate)
		return ft.Network
	})
	return ft
}

// RunConfig drives one simulation.
type RunConfig struct {
	// Specs is the flow schedule (see Background/Incast generators).
	Specs []workload.FlowSpec
	// Duration is the simulated horizon; flows still running then are
	// reported as unfinished.
	Duration units.Time
	// Drain keeps the simulation running past Duration (up to DrainCap,
	// default 4×Duration) until every flow completes. FCT averages are
	// biased without it: the slowest flows would be the ones excluded.
	Drain bool
	// DrainCap bounds the drain phase.
	DrainCap units.Time
	// OnFlowDone is an optional per-completion hook (metrics are always
	// collected regardless). The *Flow is recycled when the hook returns
	// and must not be retained. On a partitioned network (LPWorkers > 0)
	// completions fire on LP worker goroutines: the hook can be invoked
	// concurrently for flows sourced in different LPs and must synchronize
	// or partition any state it writes.
	OnFlowDone func(f *Flow)
	// Faults is the fault script injected into this run; it overrides
	// NetworkConfig.Faults (experiments build scenarios against node IDs
	// known only after the topology exists). "On" occurrences are bounded
	// by Duration; "off" occurrences may land past it and fire during the
	// drain phase. Fault actions run on the coordinator simulator, so
	// results stay bit-identical across LPWorkers counts.
	Faults *FaultScenario
	// DetectDeadlock arms the cyclic-buffer-dependency scanner; the verdict
	// lands in Result.Deadlocked / Result.DeadlockOnset.
	DetectDeadlock bool
	// DeadlockInterval is the scan period (default 100 µs);
	// DeadlockConfirm the consecutive-positive-scan threshold (default 3).
	DeadlockInterval units.Time
	DeadlockConfirm  int
	// Trace, when non-nil, streams every packet departure of the run to the
	// tracer as a packed wire frame (see internal/wire): each port calls it
	// at the instant a packet's last bit leaves, with a run-global port ID
	// (hosts first in index order, then each switch's ports). Capture is a
	// packet-fidelity, classic-engine knob: flow/hybrid fidelity and
	// partitioned networks (LPWorkers > 0) reject it — on the parallel
	// engine departures fire concurrently on worker goroutines, which would
	// interleave the stream nondeterministically.
	Trace eport.Tracer
	// Fidelity selects the simulation granularity: FidelityPacket (default)
	// simulates every packet; FidelityFlow fast-forwards every flow at fluid
	// granularity (see internal/flowsim); FidelityHybrid re-simulates flows
	// crossing contended hotspots at packet granularity and fast-forwards
	// the rest, stitching boundary flows in as rate-limited sources
	// (DESIGN.md §11). Flow and hybrid fidelities reject fault scripts and
	// deadlock detection — those are packet-level phenomena.
	Fidelity string
}

// Flow re-exports the transport flow for hooks and custom schedules.
type Flow = transport.Flow

// Result reports one run.
type Result struct {
	// FCT holds completions grouped by flow tag.
	FCT *metrics.FCTCollector
	// Drops counts lossless admission failures (should stay 0).
	Drops int64
	// PauseFrames counts PAUSE transitions received by host uplinks.
	PauseFrames int64
	// HostPausedTime sums pause durations experienced by host uplinks
	// (queue-level of all classes plus port-level).
	HostPausedTime units.Time
	// Unfinished counts flows still incomplete at the horizon.
	Unfinished int
	// Events is the number of simulator events processed.
	Events uint64
	// HeapMax is the high-water mark of the event heap — the scaling
	// observable of the Channel conversion (see sim.Simulator.HeapMax).
	HeapMax int
	// Epochs counts the partitioned engine's barrier epochs (0 on the
	// classic engine). Epochs per simulated second is the partition-tax
	// observable: wider lookahead windows mean fewer epochs.
	Epochs uint64
	// LPBalance is the ratio of the busiest LP's processed-event count to
	// the per-LP mean (1.0 = perfectly balanced, 0 on the classic engine).
	// It feeds the measured LP rebalancing policy and the benchkit
	// lp_balance metric.
	LPBalance float64
	// WireDrops counts packets lost to down links (fault-injected flaps);
	// zero without faults.
	WireDrops int64
	// Faults reports what the injector actually did (zero without faults).
	Faults FaultStats
	// Deadlocked reports a confirmed PFC deadlock (RunConfig.DetectDeadlock
	// must be set); DeadlockOnset is its onset time, -1 when none.
	Deadlocked    bool
	DeadlockOnset units.Time
	// Fidelity echoes the granularity the run executed at ("" = packet).
	Fidelity string
	// HotLinks counts the links the flow-level pass flagged as contended
	// hotspots (flow and hybrid fidelities only).
	HotLinks int
	// PacketFlows is how many flows the hybrid mode re-simulated at packet
	// granularity (hot flows plus rate-limited boundary sources).
	PacketFlows int
}

// Run executes a flow schedule on a network built by one of the New*
// constructors and returns the collected metrics. The network can only be
// run once (the simulator is not resettable).
func Run(net *Network, rc RunConfig) *Result {
	st, ok := net.UserData.(*runState)
	if !ok {
		panic("dshsim: Run on a network not built by dshsim.New*")
	}
	if st.ran {
		panic("dshsim: a network can only be run once")
	}
	st.ran = true

	if rc.Trace != nil && rc.Fidelity != "" && rc.Fidelity != FidelityPacket {
		panic(fmt.Sprintf("dshsim: trace capture is a packet-level knob (fidelity %q)", rc.Fidelity))
	}

	switch rc.Fidelity {
	case "", FidelityPacket:
		return runPacket(net, st, rc, nil)
	case FidelityFlow:
		return runFlowLevel(net, st, rc)
	case FidelityHybrid:
		return runHybrid(net, st, rc)
	default:
		panic(fmt.Sprintf("dshsim: unknown fidelity %q", rc.Fidelity))
	}
}

// runPacket is the packet-granularity path (the only one before fidelity
// modes existed). rateCap, when non-nil, caps spec i's injection rate at
// rateCap[i] via a transport.RateLimited controller instead of the
// network's transport — the hybrid mode's boundary-flow stitching.
func runPacket(net *Network, st *runState, rc RunConfig, rateCap []units.BitRate) *Result {
	if rc.Trace != nil {
		if net.Partitioned() {
			panic("dshsim: trace capture requires the classic engine (build the network with LPWorkers == 0)")
		}
		// Global port IDs: hosts first in index order, then each switch's
		// ports in switch/port order — the numbering DESIGN.md §12 pins.
		id := int32(0)
		for _, h := range net.Hosts {
			h.Port().SetTracer(rc.Trace, id)
			id++
		}
		for _, sw := range net.Switches {
			for i := 0; i < sw.Ports(); i++ {
				sw.Port(i).SetTracer(rc.Trace, id)
				id++
			}
		}
	}

	// Completions are recorded per device group: flow completion fires on
	// the source host's LP (worker goroutines in a partitioned run), so each
	// group appends to its own collector, and after the run the first
	// collector absorbs the rest in group order. A classic network is the
	// one-group case: no merge, records in completion order.
	K := net.LPCount()
	lpFCT := make([]*metrics.FCTCollector, K)
	for i := range lpFCT {
		lpFCT[i] = metrics.NewFCTCollector()
	}
	res := &Result{FCT: lpFCT[0]}

	// Intern every workload tag up front — into every collector, in the same
	// spec order, so a flow's TagID indexes the same tag everywhere — and
	// preallocate the record slices from the schedule's per-LP per-tag flow
	// counts, so completions never grow a map or reallocate.
	tagIDs := make([]int32, len(rc.Specs))
	type lpTag struct {
		lp int
		id int32
	}
	tagCounts := make(map[lpTag]int)
	for i, sp := range rc.Specs {
		for _, c := range lpFCT {
			tagIDs[i] = c.Intern(sp.Tag)
		}
		tagCounts[lpTag{net.LPOfNode(sp.Src), tagIDs[i]}]++
	}
	for i, sp := range rc.Specs {
		lt := lpTag{net.LPOfNode(sp.Src), tagIDs[i]}
		if n := tagCounts[lt]; n > 0 {
			lpFCT[lt.lp].Reserve(sp.Tag, n)
			tagCounts[lt] = 0
		}
	}

	// Flows are materialized lazily at their start time from a per-LP pool
	// and recycled after the completion callback, so steady-state flow churn
	// allocates only up to the peak number of concurrently live flows, and
	// each pool stays single-goroutine (Get at the coordinator barrier, Put
	// on the owning LP).
	starter := &flowStarter{
		net:     net,
		specs:   rc.Specs,
		tagIDs:  tagIDs,
		factory: newFactory(net, st.nc.Transport),
		rateCap: rateCap,
		pools:   make([]transport.FlowPool, K),
	}
	started := len(rc.Specs)
	completed := func() int {
		n := 0
		for _, c := range lpFCT {
			n += c.Count("")
		}
		return n
	}
	st.done = func(f *transport.Flow) {
		lp := net.LPOfNode(f.Src)
		lpFCT[lp].Record(f)
		if rc.OnFlowDone != nil {
			rc.OnFlowDone(f)
		}
		starter.pools[lp].Put(f) // f is invalid from here on
	}
	for i, sp := range rc.Specs {
		net.Sim.AtAction(sp.Start, starter, nil, int64(i))
	}

	var inj *fault.Injector
	if sc := rc.Faults; sc != nil || st.nc.Faults != nil {
		if sc == nil {
			sc = st.nc.Faults
		}
		var err error
		if inj, err = fault.NewInjector(net, *sc); err != nil {
			panic(fmt.Sprintf("dshsim: %v", err))
		}
		if err = inj.Start(rc.Duration); err != nil {
			panic(fmt.Sprintf("dshsim: %v", err))
		}
	}
	var det *metrics.DeadlockDetector
	if rc.DetectDeadlock {
		det = metrics.NewDeadlockDetector(net, rc.DeadlockInterval, rc.DeadlockConfirm)
		det.Start()
	}

	net.Par.RunUntil(rc.Duration)
	if rc.Drain {
		deadline := rc.DrainCap
		if deadline <= 0 {
			deadline = 4 * rc.Duration
		}
		step := rc.Duration / 20
		if step <= 0 {
			step = units.Millisecond
		}
		for completed() < started && net.Sim.Now() < deadline {
			net.Par.RunUntil(net.Sim.Now() + step)
		}
	}
	for _, c := range lpFCT[1:] {
		res.FCT.Absorb(c)
	}
	res.Drops = net.Drops()
	for _, h := range net.Hosts {
		p := h.Port()
		res.PauseFrames += p.PauseFrames()
		res.HostPausedTime += p.PortPausedTime()
		for c := 0; c < p.Classes(); c++ {
			res.HostPausedTime += p.ClassPausedTime(packet.Class(c))
		}
	}
	res.Unfinished = started - res.FCT.Count("")
	res.Events = net.Par.Processed()
	res.HeapMax = net.Par.HeapMax()
	res.Epochs = net.Par.Epochs()
	res.LPBalance = net.Par.LPBalance()
	res.WireDrops = net.WireDrops()
	if inj != nil {
		res.Faults = inj.Stats()
	}
	res.DeadlockOnset = -1
	if det != nil {
		res.Deadlocked = det.Deadlocked()
		res.DeadlockOnset = det.Onset()
	}
	// The run is over: clamp the simulators' pooled capacity so parked
	// results of a long parallel sweep don't pin peak-load memory. The
	// clocks survive, so post-Run pause accounting stays correct.
	net.Par.Reset()
	return res
}

// flowStarter materializes one flow spec at its start time: an event's n
// argument indexes the spec, the flow object comes from the pool, and the
// destination host's receive slot is registered before the source starts
// pumping. One pre-bound action serves every flow of the run.
type flowStarter struct {
	net     *Network
	specs   []workload.FlowSpec
	tagIDs  []int32
	factory transport.Factory
	// rateCap, when non-nil, replaces spec i's controller with a
	// RateLimited pacer at rateCap[i] (hybrid boundary stitching); zero
	// entries keep the network transport.
	rateCap []units.BitRate
	// pools holds one flow pool per logical process (a single pool on a
	// classic network), indexed by the flow's source LP.
	pools []transport.FlowPool
}

// Run implements sim.Action.
func (fs *flowStarter) Run(_ any, n int64) {
	sp := fs.specs[n]
	f := fs.pools[fs.net.LPOfNode(sp.Src)].Get()
	f.ID, f.Src, f.Dst = sp.ID, sp.Src, sp.Dst
	f.Class, f.Size, f.Start, f.Tag = sp.Class, sp.Size, sp.Start, sp.Tag
	f.TagID = fs.tagIDs[n]
	f.FinishedAt = -1
	if fs.rateCap != nil && fs.rateCap[n] > 0 {
		f.CC = transport.NewRateLimited(fs.rateCap[n])
	} else {
		f.CC = fs.factory(f)
	}
	fs.net.StartFlow(f)
}

// newFactory builds the per-flow controller factory for a transport kind.
func newFactory(net *Network, kind TransportKind) transport.Factory {
	switch kind {
	case TransportNone, "":
		lr := transport.NewLineRate()
		return func(*transport.Flow) transport.CongestionControl { return lr }
	case TransportDCQCN:
		return func(f *transport.Flow) transport.CongestionControl {
			rate := net.Hosts[f.Src].Port().Rate()
			p := dcqcn.DefaultParams(rate)
			p.WindowCap = units.BandwidthDelayProduct(rate, baseRTT)
			// The controller's timers must run on the source host's LP.
			return dcqcn.New(net.SimOf(f.Src), p)
		}
	case TransportPowerTCP:
		return func(f *transport.Flow) transport.CongestionControl {
			rate := net.Hosts[f.Src].Port().Rate()
			return powertcp.New(powertcp.DefaultParams(rate, baseRTT))
		}
	default:
		panic(fmt.Sprintf("dshsim: unknown transport %q", kind))
	}
}
