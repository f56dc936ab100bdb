// Package flowsim is the flow-level (fluid) fast-forwarding engine: flows
// carry a *rate* that evolves under max-min fair sharing per link instead of
// being simulated packet by packet. Rates are recomputed event-driven — on
// flow arrival and finish, coalesced to at most one progressive-filling pass
// per quantum — and PFC/headroom effects are approximated from per-port
// occupancy using the same Dynamic Threshold arithmetic as the packet-level
// MMU (T = α·(Bs − ΣQ), Xoff = T − δ). The output is a per-flow completion
// time without any per-packet events, which is what makes 10⁵–10⁶ flow
// sweeps run in seconds (see dshsim's `scale` family and DESIGN.md §11).
//
// The engine is deliberately self-contained: the caller (dshsim.fidelity)
// extracts the link graph, per-switch shared-buffer capacity Bs, per-port
// headroom η, and per-flow ECMP paths from an already-built topology.Network
// and hands them over as plain slices. Everything here is single-threaded
// and deterministic: results are a pure function of the Config and specs.
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dsh/units"
)

// DefaultQuantum is the rate-recompute coalescing interval when Config
// leaves Quantum zero. Arrivals and finishes inside one quantum share a
// single progressive-filling pass, bounding the engine's cost at
// O(active flows) per quantum rather than per event.
const DefaultQuantum = 5 * units.Microsecond

// Link is one directed edge (an egress port) of the flow-level graph.
type Link struct {
	// Cap is the line rate.
	Cap units.BitRate
	// Prop is the propagation delay (used in the FCT latency offset).
	Prop units.Time
	// Switch is the owning switch index for shared-buffer accounting, or
	// -1 for host NIC egress (no MMU, no PFC queue model).
	Switch int
	// XoffDelta is subtracted from the DT threshold to form the pause
	// point: η for DSH (pause early, eat into headroom), 0 for SIH.
	XoffDelta units.ByteSize
	// Ingress lists the links feeding this link's switch. When this
	// egress queue trips its Xoff threshold, PFC pauses *those* upstream
	// links (the congested port itself keeps draining its queue) — which
	// is how the collateral-damage coupling of PFC arises: every flow
	// crossing a paused ingress link stalls, victim or not.
	Ingress []int32
}

// Switch is the shared-buffer pool of one device.
type Switch struct {
	// Shared is the shared-segment size Bs under the configured scheme
	// (DSH: B − P·η; SIH: B − P·Nq·η) — exactly MMU.SharedCap().
	Shared units.ByteSize
	// Alpha is the Dynamic Threshold parameter.
	Alpha float64
}

// Spec is one flow to simulate. The path is the exact sequence of link
// indices a packet of this flow would traverse (the caller walks
// routing.FlatTable.PortFor so ECMP decisions match packet level).
type Spec struct {
	ID    int
	Size  units.ByteSize
	Start units.Time
	Path  []int32
}

// Config parameterises one Run.
type Config struct {
	Links    []Link
	Switches []Switch
	// MTU and Header size the wire-overhead inflation and latency offset.
	MTU, Header units.ByteSize
	// Quantum coalesces rate recomputations; zero means DefaultQuantum.
	Quantum units.Time
	// ConvWindow is the source-reaction window: a newly admitted flow that
	// wanted more than its share deposits (wanted − got)·ConvWindow bytes
	// (capped by its size) into its bottleneck port's queue, modelling the
	// transient before end-to-end control reins it in. Typically the base
	// RTT of the fabric.
	ConvWindow units.Time
	// CCDrain is the fraction of link capacity at which a *saturated*
	// port's queue still drains, modelling congestion control pushing
	// senders slightly below their fair share. Zero (no end-to-end CC)
	// means a saturated port's queue persists until flows finish, as with
	// pure PFC.
	CCDrain float64
	// ECNClamp caps the modelled occupancy a burst can deposit into one
	// queue when end-to-end CC is present: ECN marking plus the CNP loop
	// hold packet-level queues near the marking band, so fluid deposits
	// beyond that operating point never materialise. PFC still trips when
	// shared-pool pressure drives Xoff *below* the clamp — which is
	// exactly the regime where the packet engine pauses too. Zero means
	// unclamped (no CC).
	ECNClamp units.ByteSize
	// HotFraction marks a port "hot" (hybrid candidate) when its queue
	// exceeds this fraction of its current Xoff threshold. Zero means the
	// DefaultHotFraction.
	HotFraction float64
}

// DefaultHotFraction is the queue/Xoff ratio above which a port counts as a
// contended hotspot even if it never paused.
const DefaultHotFraction = 0.5

// hotMinFlows is the fan-in multiplicity a queued port needs before it
// counts as hot: a pair of long flows fair-sharing a link is exactly what
// the fluid model gets right, so only many-to-one contention (incast-like
// transients, where packet-level dynamics diverge) triggers hybrid
// re-simulation.
const hotMinFlows = 4

// FlowResult is the per-flow outcome, indexed like the Run specs.
type FlowResult struct {
	// FCT is the completion time minus start, including the path latency
	// offset; <0 if the flow did not finish within the horizon.
	FCT units.Time
	// Finish is the absolute completion instant (last byte leaves the
	// source); <0 if unfinished.
	Finish units.Time
	// Paused is the total time the flow sat at rate zero behind a
	// PFC-paused port.
	Paused units.Time
	// Rate is the flow's mean achieved wire rate (wire bytes over transfer
	// time); the hybrid mode uses it to stitch boundary flows in as
	// rate-limited sources. Zero if unfinished.
	Rate units.BitRate
	// Hot reports that the flow was active while some link on its path was
	// contended (tripped, or queued past HotFraction·Xoff with fan-in-like
	// multiplicity) — the temporal per-flow form of the link Hot flags,
	// which is what hybrid mode re-simulates at packet granularity.
	Hot bool
	// Warm reports that the flow, while not hot itself, shared a link with
	// some concurrently active hot flow: its load shapes the contended
	// queues, so hybrid mode stitches it into the packet sub-run as a
	// rate-limited source instead of keeping its fluid FCT.
	Warm bool
}

// Result is one Run's outcome.
type Result struct {
	Flows []FlowResult
	// Hot flags the links that paused or crossed HotFraction·Xoff.
	Hot []bool
	// PauseEvents counts port pause transitions; PausedTime sums, over
	// links, the time each spent PFC-paused (the flow-level analogue of the
	// packet engine's per-host pause accounting; per-flow stall is in
	// FlowResult.Paused).
	PauseEvents int
	PausedTime  units.Time
	// Unfinished counts flows still active at the horizon.
	Unfinished int
	// Events counts arrivals + completions + recompute passes.
	Events int64
	// MaxQueue is the highest modelled port occupancy seen.
	MaxQueue units.ByteSize
}

// flowState is the mutable per-flow record.
type flowState struct {
	rem      float64 // wire bytes left to send
	rate     float64 // bytes per picosecond
	prevRate float64 // waterfill scratch: rate before the current pass
	upTo     float64 // time rem was last integrated to
	paused   float64 // accumulated stall
	qdelay   float64 // FCT offset from standing queues at admission
	gen      int32
	active   bool
	blocked  bool // current rate is zero because a path link is paused
	hot      bool // was active while a path link was contended
	warm     bool // shared a link with a concurrently active hot flow
}

type linkState struct {
	capBps      float64 // bytes per picosecond
	alloc       float64 // sum of active flow rates
	queue       float64 // modelled occupancy (bytes)
	pausedUntil float64
	xoffDelta   float64
	sw          int32
	paused      bool
	// tripped marks an egress queue whose Xoff crossing already issued a
	// pause; it re-arms when that pause window expires.
	tripped bool
	hot     bool
	// hotNow is the instantaneous contention flag advanceQueues refreshes:
	// flows active while a path link has hotNow set become hot themselves.
	hotNow bool
	// nAct counts active flows currently crossing the link (admit/finish
	// maintained), the multiplicity input to the hot rule; nHot counts the
	// hot ones among them (warm classification).
	nAct int32
	nHot int32
	// waterfill scratch: the capacity left for the nUn unfrozen flows
	// crossing the link.
	remCap float64
	nUn    int32
}

type heapEntry struct {
	at  float64
	idx int32
	gen int32
}

// engine is the per-Run state.
type engine struct {
	cfg      Config
	specs    []Spec
	flows    []flowState
	links    []linkState
	swSumQ   []float64
	swShared []float64
	swAlpha  []float64
	heap     []heapEntry
	// actList holds indices of possibly-active flows; compacted at each
	// waterfill so per-boundary work scales with live flows, not total.
	actList []int32
	// Waterfill scratch, reused across passes: the flows not yet frozen
	// (in actList order), the links that carry one (in any order, with
	// livePos each one's slot), and per link the fair share remCap/nUn,
	// valid while the link is live.
	unfrozen   []int32
	liveLinks  []int32
	livePos    []int32
	ratio      []float64
	active     int
	events     int64
	pauses     int
	pausedTime float64 // Σ over links of time spent paused
	maxQ       float64
	hotFrac    float64
	ccDrain    float64
	ecnClamp   float64
	conv       float64
	quantum    float64
}

const (
	epsBytes = 1e-3 // completion slack: a milli-byte is below any wire unit
	relEps   = 1e-9 // waterfill bottleneck grouping tolerance
)

// Run simulates the specs to completion (or horizon, if positive) and
// returns per-flow completion times. It is deterministic: identical inputs
// produce identical outputs.
func Run(cfg Config, specs []Spec, horizon units.Time) Result {
	e := newEngine(cfg, specs)
	e.run(horizon)
	return e.result(horizon)
}

func newEngine(cfg Config, specs []Spec) *engine {
	e := &engine{cfg: cfg, specs: specs}
	e.quantum = float64(cfg.Quantum)
	if e.quantum <= 0 {
		e.quantum = float64(DefaultQuantum)
	}
	e.conv = float64(cfg.ConvWindow)
	e.ccDrain = cfg.CCDrain
	e.ecnClamp = float64(cfg.ECNClamp)
	e.hotFrac = cfg.HotFraction
	if e.hotFrac <= 0 {
		e.hotFrac = DefaultHotFraction
	}
	e.links = make([]linkState, len(cfg.Links))
	e.ratio = make([]float64, len(cfg.Links))
	e.livePos = make([]int32, len(cfg.Links))
	for i, l := range cfg.Links {
		if l.Cap <= 0 {
			panic(fmt.Sprintf("flowsim: link %d has rate %v", i, l.Cap))
		}
		e.links[i] = linkState{
			capBps:    bytesPerPs(l.Cap),
			xoffDelta: float64(l.XoffDelta),
			sw:        int32(l.Switch),
		}
	}
	e.swSumQ = make([]float64, len(cfg.Switches))
	e.swShared = make([]float64, len(cfg.Switches))
	e.swAlpha = make([]float64, len(cfg.Switches))
	for i, s := range cfg.Switches {
		e.swShared[i] = float64(s.Shared)
		e.swAlpha[i] = s.Alpha
	}
	e.flows = make([]flowState, len(specs))
	return e
}

func bytesPerPs(r units.BitRate) float64 {
	return float64(r) / 8 / float64(units.Second)
}

// wireBytes inflates payload to on-the-wire bytes: every MTU−Header payload
// chunk carries Header overhead, so fluid rates stay comparable to packet
// serialization.
func (e *engine) wireBytes(size units.ByteSize) float64 {
	maxPayload := e.cfg.MTU - e.cfg.Header
	if maxPayload <= 0 {
		return float64(size)
	}
	pkts := (size + maxPayload - 1) / maxPayload
	return float64(size + pkts*e.cfg.Header)
}

// latency is the fixed FCT offset a packet-level flow pays beyond fluid
// transfer time: one-way propagation plus per-hop store-and-forward of the
// final MTU, and the ACK's return trip.
func (e *engine) latency(path []int32) float64 {
	const ackBytes = 64
	var d float64
	for _, li := range path {
		l := &e.cfg.Links[li]
		d += 2 * float64(l.Prop)
		d += float64(units.TransmissionTime(e.cfg.MTU, l.Cap))
		d += float64(units.TransmissionTime(ackBytes, l.Cap))
	}
	return d
}

func (e *engine) run(horizon units.Time) {
	// Arrival order: by start time, flow index as the tiebreak.
	order := make([]int32, len(e.specs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(e.specs[a].Start, e.specs[b].Start)
	})

	hzn := math.Inf(1)
	if horizon > 0 {
		hzn = float64(horizon)
	}

	t := 0.0
	lastQ := 0.0                // time queues were last advanced
	nextBoundary := math.Inf(1) // pending recompute instant
	cursor := 0

	for e.active > 0 || cursor < len(order) {
		tArr := math.Inf(1)
		if cursor < len(order) {
			tArr = float64(e.specs[order[cursor]].Start)
		}
		tFin := e.peekFinish()
		tn := math.Min(tArr, math.Min(tFin, nextBoundary))
		if math.IsInf(tn, 1) {
			break
		}
		if tn > hzn {
			t = hzn
			break
		}
		t = tn
		dirty := false

		// Finishes due now.
		for {
			fin := e.peekFinish()
			if fin > t {
				break
			}
			e.popFinish(t)
			dirty = true
		}
		// Arrivals due now.
		for cursor < len(order) && float64(e.specs[order[cursor]].Start) <= t {
			e.admit(int(order[cursor]), t)
			cursor++
			dirty = true
		}
		if dirty {
			nb := t + e.quantum
			if nb < nextBoundary {
				nextBoundary = nb
			}
		}
		if nextBoundary <= t {
			nextBoundary = e.recompute(t, lastQ)
			lastQ = t
		}
	}
	// Final queue/pause bookkeeping so hot flags cover the tail.
	if t > lastQ {
		e.advanceQueues(t, t-lastQ)
	}
}

// peekFinish returns the earliest valid completion instant, discarding
// stale heap entries.
func (e *engine) peekFinish() float64 {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.flows[top.idx].gen == top.gen && e.flows[top.idx].active {
			return top.at
		}
		e.heapPop()
	}
	return math.Inf(1)
}

// popFinish completes the flow at the top of the heap at time t.
func (e *engine) popFinish(t float64) {
	top := e.heap[0]
	e.heapPop()
	f := &e.flows[top.idx]
	f.rem -= f.rate * (t - f.upTo)
	f.upTo = t
	if f.rem > epsBytes {
		// Numerical drift: re-predict.
		e.pushFinish(int(top.idx))
		return
	}
	f.rem = 0
	f.active = false
	f.upTo = t // records the finish instant
	e.active--
	e.events++
	for _, li := range e.specs[top.idx].Path {
		l := &e.links[li]
		l.alloc -= f.rate
		if l.alloc < 0 {
			l.alloc = 0
		}
		l.nAct--
		if f.hot {
			l.nHot--
		}
	}
	f.rate = 0
	f.gen++
}

// admit starts a flow at its full access rate — real senders burst
// unpaced for the first RTT, which is both why small flows beat their
// fair share and why buffers fill during incast. The overshoot beyond the
// path's free capacity is deposited into the bottleneck port's queue over
// the convergence window (capped by the flow's size), and the next
// quantum-boundary waterfill trims the rate back to the max-min share. A
// flow whose path crosses a paused link is held at rate zero instead.
func (e *engine) admit(idx int, t float64) {
	sp := &e.specs[idx]
	f := &e.flows[idx]
	f.rem = e.wireBytes(sp.Size)
	f.upTo = t
	f.active = true
	e.actList = append(e.actList, int32(idx))
	e.active++
	e.events++

	desired := math.Inf(1)
	free := math.Inf(1)
	bneck := int32(-1)
	blocked := false
	for _, li := range sp.Path {
		l := &e.links[li]
		l.nAct++
		if l.hotNow {
			e.markHot(idx)
		}
		if l.nHot > 0 {
			f.warm = true
		}
		// Standing queues delay this flow's last byte by their drain time;
		// the fluid transfer itself never sees them, so charge the sojourn
		// as a completion offset.
		f.qdelay += l.queue / l.capBps
		if l.capBps < desired {
			desired = l.capBps
		}
		eff := l.capBps
		if l.paused {
			eff = 0
			blocked = true
		}
		fr := eff - l.alloc
		if fr < free {
			free = fr
			bneck = li
		}
	}
	if blocked {
		f.blocked = true
		f.rate = 0
		return
	}
	f.rate = desired
	for _, li := range sp.Path {
		e.links[li].alloc += desired
	}
	if free < desired && bneck >= 0 && e.conv > 0 {
		l := &e.links[bneck]
		if l.sw >= 0 {
			dep := (desired - math.Max(free, 0)) * e.conv
			if dep > f.rem {
				dep = f.rem
			}
			if e.ecnClamp > 0 && l.queue+dep > e.ecnClamp {
				dep = math.Max(0, e.ecnClamp-l.queue)
			}
			l.queue += dep
			e.swSumQ[l.sw] += dep
			if l.queue > e.maxQ {
				e.maxQ = l.queue
			}
		}
	}
	e.pushFinish(idx)
}

// recompute is the quantum-boundary pass: advance queue/pause state over
// the elapsed interval, then re-run progressive filling over all active
// flows. It returns the next boundary instant (inf when the system is idle
// enough that arrivals/finishes alone should wake it).
func (e *engine) recompute(t, lastQ float64) float64 {
	e.events++
	if dt := t - lastQ; dt > 0 {
		e.advanceQueues(t, dt)
	}
	e.waterfill(t)

	next := math.Inf(1)
	for i := range e.links {
		l := &e.links[i]
		if (l.paused || l.tripped) && l.pausedUntil < next {
			next = l.pausedUntil
		}
		if l.queue > 0 {
			// Keep draining on the quantum cadence.
			if nb := t + e.quantum; nb < next {
				next = nb
			}
		}
	}
	return next
}

// advanceQueues drains modelled occupancies over dt, expires pauses, and
// triggers new ones via the DT threshold.
func (e *engine) advanceQueues(t, dt float64) {
	for i := range e.links {
		l := &e.links[i]
		l.hotNow = false
		if l.paused {
			e.pausedTime += math.Min(dt, math.Max(0, l.pausedUntil-(t-dt)))
		}
		if (l.paused || l.tripped) && t >= l.pausedUntil-1e-9 {
			l.paused = false
			l.tripped = false
		}
		if l.sw < 0 {
			continue
		}
		if l.queue > 0 {
			// A paused port's upstream input is stopped, so it drains at
			// full line rate (alloc is zero while paused); otherwise spare
			// capacity plus the CC-induced underrun drains it.
			drain := l.capBps - l.alloc + e.ccDrain*l.capBps
			if drain > 0 {
				d := drain * dt
				if d > l.queue {
					d = l.queue
				}
				l.queue -= d
				e.swSumQ[l.sw] -= d
			}
		}
	}
	// Pause checks after all drains so ΣQ is consistent. A tripped egress
	// queue pauses the *upstream* links feeding its switch (PFC stops the
	// senders one hop back; the congested port keeps draining) — stalling
	// every flow crossing them, victims and bystanders alike. Links built
	// without ingress information fall back to pausing themselves.
	for i := range e.links {
		l := &e.links[i]
		if l.sw < 0 || l.queue <= 0 {
			continue
		}
		alpha := e.swAlpha[l.sw]
		threshold := alpha * math.Max(0, e.swShared[l.sw]-e.swSumQ[l.sw])
		xoff := math.Max(0, threshold-l.xoffDelta)
		if l.tripped || (xoff > 0 && l.queue >= e.hotFrac*xoff && l.nAct >= hotMinFlows) {
			l.hotNow = true
			l.hot = true
		}
		floor := math.Max(xoff, float64(e.cfg.MTU))
		if l.tripped || l.queue < floor {
			continue
		}
		xon := xoff / 2
		until := t + (l.queue-xon)/l.capBps
		l.tripped = true
		l.hot = true
		l.hotNow = true
		if until > l.pausedUntil {
			l.pausedUntil = until // re-arm instant for the trip latch
		}
		e.pauses++
		ingress := e.cfg.Links[i].Ingress
		if len(ingress) == 0 {
			l.paused = true
			continue
		}
		// Paused ingress links are collateral, not hotspots: the fluid
		// model already captures their flows' stall, so they are not
		// marked hot (only the tripped egress queue needs packet-level
		// re-simulation in hybrid mode).
		for _, ui := range ingress {
			u := &e.links[ui]
			u.paused = true
			if until > u.pausedUntil {
				u.pausedUntil = until
			}
		}
	}
}

// waterfill runs exact progressive filling over the active flows: repeatedly
// find the minimum fair share over the remaining links, freeze every flow
// crossing a bottleneck link at that share, subtract, and continue. Flows
// whose path crosses a paused link are held at rate zero (their stall time
// accrues until the next pass).
//
// Each round visits only the still-unfrozen flows, in actList order, and
// only the links that still carry one; a link's share remCap/nUn is cached
// and recomputed from the same operands whenever either changes. Frozen
// flows contribute nothing to a round, so this freezes exactly the flows,
// in exactly the order, that a full rescan of actList would — every float
// is the same.
func (e *engine) waterfill(t float64) {
	// Compact the active list: completed flows drop out here.
	live := e.actList[:0]
	for _, fi := range e.actList {
		if e.flows[fi].active {
			live = append(live, fi)
		}
	}
	e.actList = live

	// Reset link scratch.
	for i := range e.links {
		l := &e.links[i]
		l.remCap = l.capBps
		if l.paused {
			l.remCap = 0
		}
		l.nUn = 0
		l.alloc = 0
	}
	// Integrate the active flows to t and classify. prev keeps each flow's
	// pre-pass rate so an unchanged share does not invalidate its heap
	// entry (a constant rate leaves the predicted finish instant intact).
	links, ratio := e.links, e.ratio
	unfrozen := e.unfrozen[:0]
	for _, fi := range e.actList {
		f := &e.flows[fi]
		f.rem -= f.rate * (t - f.upTo)
		if f.rem < 0 {
			f.rem = 0
		}
		if f.blocked {
			f.paused += t - f.upTo
		}
		f.upTo = t
		f.blocked = false
		path := e.specs[fi].Path
		for _, li := range path {
			l := &links[li]
			if l.paused {
				f.blocked = true
			}
			if l.hotNow {
				e.markHot(int(fi))
			}
			if l.nHot > 0 {
				f.warm = true
			}
			l.nUn++ // taken back below if the flow is blocked
		}
		prev := f.rate
		if f.blocked {
			for _, li := range path {
				links[li].nUn--
			}
			if prev != 0 {
				f.rate = 0
				f.gen++
			}
			continue
		}
		f.prevRate = prev
		f.rate = -1 // mark unfrozen
		unfrozen = append(unfrozen, fi)
	}
	// Live links carry unfrozen flows; livePos is each one's slot in
	// liveLinks, so a link leaves the set in O(1) once its last unfrozen
	// flow freezes. Every link on an unfrozen flow's path is live.
	liveLinks, livePos := e.liveLinks[:0], e.livePos
	for i := range links {
		if l := &links[i]; l.nUn > 0 {
			ratio[i] = l.remCap / float64(l.nUn)
			livePos[i] = int32(len(liveLinks))
			liveLinks = append(liveLinks, int32(i))
		}
	}

	for len(unfrozen) > 0 {
		share := math.Inf(1)
		for _, li := range liveLinks {
			if r := ratio[li]; r < share {
				share = r
			}
		}
		if math.IsInf(share, 1) {
			// No constraining link (cannot happen: every path has links);
			// freeze the rest at their access cap.
			for _, fi := range unfrozen {
				e.setRate(int(fi), e.accessCap(int(fi)))
			}
			unfrozen = unfrozen[:0]
			break
		}
		limit := share * (1 + relEps)
		// Freeze every unfrozen flow crossing a bottleneck-level link; the
		// survivors stay in order for the next round.
		n := 0
		for _, fi := range unfrozen {
			path := e.specs[fi].Path
			hit := false
			for _, li := range path {
				if ratio[li] <= limit {
					hit = true
					break
				}
			}
			if !hit {
				unfrozen[n] = fi
				n++
				continue
			}
			for _, li := range path {
				l := &links[li]
				l.nUn--
				l.remCap -= share
				if l.remCap < 0 {
					l.remCap = 0
				}
				if l.nUn > 0 {
					ratio[li] = l.remCap / float64(l.nUn)
					continue
				}
				last := liveLinks[len(liveLinks)-1]
				livePos[last] = livePos[li]
				liveLinks[livePos[li]] = last
				liveLinks = liveLinks[:len(liveLinks)-1]
			}
			e.setRate(int(fi), share)
		}
		unfrozen = unfrozen[:n]
	}
	e.unfrozen, e.liveLinks = unfrozen, liveLinks
	// Rebuild alloc from final rates.
	for _, fi := range e.actList {
		f := &e.flows[fi]
		if !f.active || f.rate <= 0 {
			continue
		}
		for _, li := range e.specs[fi].Path {
			links[li].alloc += f.rate
		}
	}
}

// setRate finalises a flow's post-waterfill rate. When the share matches
// the pre-pass rate the existing heap entry stays valid (same rate, rem
// integrated at exactly that rate), so no churn.
func (e *engine) setRate(idx int, r float64) {
	f := &e.flows[idx]
	if f.prevRate == r {
		f.rate = r
		return
	}
	f.rate = r
	f.gen++
	e.pushFinish(idx)
}

// markHot promotes a flow to hot (idempotently) and counts it on its path
// links so concurrently active neighbours classify as warm.
func (e *engine) markHot(idx int) {
	f := &e.flows[idx]
	if f.hot {
		return
	}
	f.hot = true
	for _, li := range e.specs[idx].Path {
		e.links[li].nHot++
	}
}

func (e *engine) accessCap(idx int) float64 {
	c := math.Inf(1)
	for _, li := range e.specs[idx].Path {
		if e.links[li].capBps < c {
			c = e.links[li].capBps
		}
	}
	return c
}

func (e *engine) result(horizon units.Time) Result {
	res := Result{
		Flows:       make([]FlowResult, len(e.specs)),
		Hot:         make([]bool, len(e.links)),
		PauseEvents: e.pauses,
		PausedTime:  units.Time(e.pausedTime),
		Events:      e.events,
		MaxQueue:    units.ByteSize(e.maxQ),
	}
	for i := range e.links {
		res.Hot[i] = e.links[i].hot
	}
	for i := range e.flows {
		f := &e.flows[i]
		fr := &res.Flows[i]
		fr.Paused = units.Time(f.paused)
		fr.Hot = f.hot
		fr.Warm = f.warm && !f.hot
		if f.active || f.rem > 0 {
			fr.FCT = -1
			fr.Finish = -1
			res.Unfinished++
			continue
		}
		lat := e.latency(e.specs[i].Path) + f.qdelay
		fr.Finish = units.Time(f.upTo)
		fr.FCT = units.Time(f.upTo - float64(e.specs[i].Start) + lat)
		if dur := f.upTo - float64(e.specs[i].Start); dur > 0 {
			wire := e.wireBytes(e.specs[i].Size)
			fr.Rate = units.BitRate(wire / dur * 8 * float64(units.Second))
		}
	}
	_ = horizon
	return res
}

// --- completion heap (binary min-heap on at) ---

func (e *engine) pushFinish(idx int) {
	f := &e.flows[idx]
	if f.rate <= 0 {
		return
	}
	x := heapEntry{at: f.upTo + f.rem/f.rate, idx: int32(idx), gen: f.gen}
	e.heap = append(e.heap, x)
	// Sift up by moving parents into the hole: the same comparisons, and
	// so the same array, as swapping x up level by level.
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= x.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (e *engine) heapPop() {
	n := len(e.heap) - 1
	h := e.heap[:n]
	x := e.heap[n]
	e.heap = h
	if n == 0 {
		return
	}
	// Sift the former last entry down from the root through a hole.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if x.at <= h[c].at {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
