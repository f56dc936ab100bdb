// Fidelity modes: packet (simulate everything), flow (fast-forward every
// flow through internal/flowsim), and hybrid (packet-simulate only the
// flows that cross contended hotspots, fast-forward the rest, and stitch
// boundary flows in as rate-limited sources). See DESIGN.md §13.
package dshsim

import (
	"cmp"
	"fmt"
	"slices"

	"dsh/internal/flowsim"
	"dsh/internal/metrics"
	"dsh/internal/topology"
	"dsh/internal/transport"
	"dsh/internal/workload"
	"dsh/units"
)

// The three simulation granularities of RunConfig.Fidelity.
const (
	FidelityPacket = "packet"
	FidelityFlow   = "flow"
	FidelityHybrid = "hybrid"
)

// Fidelities lists the valid RunConfig.Fidelity values (packet first, the
// default).
func Fidelities() []string { return []string{FidelityPacket, FidelityFlow, FidelityHybrid} }

// ValidFidelity reports whether f names a granularity ("" = packet).
func ValidFidelity(f string) bool {
	switch f {
	case "", FidelityPacket, FidelityFlow, FidelityHybrid:
		return true
	}
	return false
}

// ccDrainFraction models end-to-end congestion control pushing senders
// slightly below their fair share in the flow-level queue approximation: a
// saturated port still drains at this fraction of line rate when a real
// transport is attached (see flowsim.Config.CCDrain).
const ccDrainFraction = 0.05

// ecnOperatingPoint is the queue level end-to-end CC holds a congested port
// near: the midpoint of the packet engine's RED band (KMin 100 KB, KMax
// 400 KB — see buildNetwork's ECNConfig). Fluid deposits are clamped here,
// so flow-level PFC trips only when DT pressure pushes Xoff below it —
// matching when the packet engine actually pauses.
const ecnOperatingPoint = 250 * units.KB

// flowGraph is the flow-level view of a built network: directed links with
// capacities and DT/PFC parameters lifted from the real switches' MMUs, and
// a dense hop table for walking packet-identical ECMP paths.
type flowGraph struct {
	net *Network
	cfg flowsim.Config
	// hops holds one entry per (node, port), node-major: node's ports are
	// hops[hopBase[node]:hopBase[node+1]].
	hopBase []int32
	hops    []graphHop
}

// graphHop is one egress endpoint: its flow-graph link (−1 when the link is
// down) and the node at the far end.
type graphHop struct{ link, next int32 }

// buildFlowGraph extracts the graph from a network built by dshsim.New*.
// Shared-segment sizes (Bs) and per-port headroom come straight from each
// switch's MMU, so the flow-level DT arithmetic matches the packet-level
// scheme (DSH: Xoff = T − η, SIH: Xoff = T) without duplicating the sizing
// rules.
func buildFlowGraph(net *Network, nc NetworkConfig) *flowGraph {
	ft := net.FlatRoutes()
	if ft == nil {
		panic("dshsim: flow fidelity requires computed routes")
	}
	g := &flowGraph{net: net, hopBase: make([]int32, net.NumNodes()+1)}
	for _, l := range net.Links {
		if n := int32(l.FromPort + 1); n > g.hopBase[l.From+1] {
			g.hopBase[l.From+1] = n
		}
	}
	for i := 1; i < len(g.hopBase); i++ {
		g.hopBase[i] += g.hopBase[i-1]
	}
	g.hops = make([]graphHop, g.hopBase[len(g.hopBase)-1])
	for i := range g.hops {
		g.hops[i].link = -1
	}
	g.cfg.Switches = make([]flowsim.Switch, len(net.Switches))
	for i, sw := range net.Switches {
		g.cfg.Switches[i] = flowsim.Switch{Shared: sw.MMU().SharedCap(), Alpha: net.Cfg.Alpha}
	}
	// switchIn collects, per switch, the link indices feeding it — the
	// upstream set PFC pauses when one of the switch's egress queues trips.
	switchIn := make([][]int32, len(net.Switches))
	for _, l := range net.Links {
		if !l.Up {
			continue
		}
		p := net.PortOf(l.From, l.FromPort)
		fl := flowsim.Link{Cap: p.Rate(), Prop: p.Prop(), Switch: -1}
		if net.IsSwitchNode(l.From) {
			si := l.From - len(net.Hosts)
			fl.Switch = si
			if net.Cfg.Scheme == topology.DSH {
				fl.XoffDelta = net.Switches[si].MMU().HeadroomCap(l.FromPort)
			}
		}
		li := int32(len(g.cfg.Links))
		if net.IsSwitchNode(l.To) {
			ti := l.To - len(net.Hosts)
			switchIn[ti] = append(switchIn[ti], li)
		}
		g.hops[int(g.hopBase[l.From])+l.FromPort] = graphHop{link: li, next: int32(l.To)}
		g.cfg.Links = append(g.cfg.Links, fl)
	}
	for i := range g.cfg.Links {
		if si := g.cfg.Links[i].Switch; si >= 0 {
			g.cfg.Links[i].Ingress = switchIn[si]
		}
	}
	g.cfg.MTU, g.cfg.Header = net.Cfg.MTU, net.Cfg.Header
	g.cfg.ConvWindow = baseRTT
	if nc.Transport == TransportDCQCN || nc.Transport == TransportPowerTCP {
		g.cfg.CCDrain = ccDrainFraction
		g.cfg.ECNClamp = ecnOperatingPoint
	}
	return g
}

// appendPath appends the ECMP route of one flow to p, reproducing exactly
// the per-hop port choices NodeTable.Route would make for its packets.
func (g *flowGraph) appendPath(p []int32, src, dst, flowID int) []int32 {
	ft := g.net.FlatRoutes()
	node := src
	for hops := 0; node != dst; hops++ {
		if hops > 64 {
			panic(fmt.Sprintf("dshsim: path %d→%d did not converge", src, dst))
		}
		port := ft.PortFor(node, dst, flowID)
		h := graphHop{link: -1}
		if i := int(g.hopBase[node]) + port; port >= 0 && i < int(g.hopBase[node+1]) {
			h = g.hops[i]
		}
		if h.link < 0 {
			panic(fmt.Sprintf("dshsim: no link at node %d port %d", node, port))
		}
		p = append(p, h.link)
		node = int(h.next)
	}
	return p
}

// hopsPerPath sizes the path arena: the longest route of a two-tier
// fabric (host–leaf–spine–leaf–host). Deeper fabrics grow the arena.
const hopsPerPath = 4

// flowSpecs converts a workload schedule into flowsim specs with resolved
// paths, all carved out of one arena.
func (g *flowGraph) flowSpecs(specs []workload.FlowSpec) []flowsim.Spec {
	out := make([]flowsim.Spec, len(specs))
	arena := make([]int32, 0, hopsPerPath*len(specs))
	for i, sp := range specs {
		n := len(arena)
		arena = g.appendPath(arena, sp.Src, sp.Dst, sp.ID)
		out[i] = flowsim.Spec{ID: sp.ID, Size: sp.Size, Start: sp.Start, Path: arena[n:len(arena):len(arena)]}
	}
	// Growing the arena may have moved it; re-point every path at the
	// final copy so the earlier ones can be collected.
	off := 0
	for i := range out {
		n := len(out[i].Path)
		out[i].Path = arena[off : off+n : off+n]
		off += n
	}
	return out
}

// fidelityHorizon mirrors the packet run's time budget: Duration, extended
// to the drain cap when draining.
func fidelityHorizon(rc RunConfig) units.Time {
	h := rc.Duration
	if rc.Drain {
		h = rc.DrainCap
		if h <= 0 {
			h = 4 * rc.Duration
		}
	}
	return h
}

func rejectPacketOnlyKnobs(st *runState, rc RunConfig) {
	if rc.Faults != nil || st.nc.Faults != nil {
		panic("dshsim: fault injection requires packet fidelity")
	}
	if rc.DetectDeadlock {
		panic("dshsim: deadlock detection requires packet fidelity")
	}
}

// runFlowLevel executes the whole schedule at fluid granularity.
func runFlowLevel(net *Network, st *runState, rc RunConfig) *Result {
	rejectPacketOnlyKnobs(st, rc)
	g := buildFlowGraph(net, st.nc)
	fres := flowsim.Run(g.cfg, g.flowSpecs(rc.Specs), fidelityHorizon(rc))

	res := &Result{FCT: metrics.NewFCTCollector(), Fidelity: FidelityFlow, DeadlockOnset: -1}
	recordFlowFCTs(res.FCT, rc.Specs, fres.Flows, nil)
	res.Unfinished = fres.Unfinished
	res.Events = uint64(fres.Events)
	res.PauseFrames = int64(fres.PauseEvents)
	res.HostPausedTime = fres.PausedTime
	for _, hot := range fres.Hot {
		if hot {
			res.HotLinks++
		}
	}
	return res
}

// runHybrid runs the flow-level pass to find contended hotspots, then
// re-simulates at packet granularity only the flows whose path crosses a
// hot link (with the network's real transport) plus — as rate-limited
// sources at their flow-level mean rate — the boundary flows that share a
// link with them. Every other flow keeps its fast-forwarded FCT.
func runHybrid(net *Network, st *runState, rc RunConfig) *Result {
	rejectPacketOnlyKnobs(st, rc)
	g := buildFlowGraph(net, st.nc)
	fspecs := g.flowSpecs(rc.Specs)
	fres := flowsim.Run(g.cfg, fspecs, fidelityHorizon(rc))

	// Classify on the engine's temporal per-flow flags: hot = active while
	// a path link was contended (or starved at flow level) → re-simulated
	// with the real transport; warm = shared a link with a concurrently
	// active hot flow → stitched in as a rate-limited source at its
	// flow-level mean rate; everything else keeps its fast-forwarded FCT.
	var subSpecs []workload.FlowSpec
	var rateCap []units.BitRate
	skip := make([]bool, len(rc.Specs)) // packet-simulated → no flow record
	for i, sp := range rc.Specs {
		fr := &fres.Flows[i]
		switch {
		case fr.Hot || fr.Finish < 0:
			skip[i] = true
			subSpecs = append(subSpecs, sp)
			rateCap = append(rateCap, 0)
		case fr.Warm:
			skip[i] = true
			subSpecs = append(subSpecs, sp)
			rateCap = append(rateCap, fr.Rate)
		}
	}

	sub := rc
	sub.Specs = subSpecs
	sub.Fidelity = ""
	res := runPacket(net, st, sub, rateCap)
	res.Fidelity = FidelityHybrid
	res.PacketFlows = len(subSpecs)
	for _, h := range fres.Hot {
		if h {
			res.HotLinks++
		}
	}

	// Merge the fast-forwarded remainder.
	coldUnfinished := 0
	for i := range rc.Specs {
		if !skip[i] && fres.Flows[i].FCT < 0 {
			coldUnfinished++
		}
	}
	recordFlowFCTs(res.FCT, rc.Specs, fres.Flows, skip)
	res.Unfinished += coldUnfinished
	res.Events += uint64(fres.Events)
	return res
}

// recordFlowFCTs appends synthetic completion records (in finish-time
// order, deterministically) for every finished flow not marked skip.
func recordFlowFCTs(c *metrics.FCTCollector, specs []workload.FlowSpec, flows []flowsim.FlowResult, skip []bool) {
	order := make([]int32, 0, len(specs))
	var tags []fctTag
	for i := range specs {
		if skip != nil && skip[i] {
			continue
		}
		t := lookupTag(c, &tags, specs[i].Tag)
		if flows[i].FCT >= 0 {
			order = append(order, int32(i))
			t.n++
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(flows[a].Finish, flows[b].Finish)
	})
	for _, t := range tags {
		c.Reserve(t.tag, t.n)
	}
	for _, i := range order {
		sp := &specs[i]
		f := transport.Flow{
			ID: sp.ID, Src: sp.Src, Dst: sp.Dst, Class: sp.Class,
			Size: sp.Size, Start: sp.Start, Tag: sp.Tag,
			TagID:      lookupTag(c, &tags, sp.Tag).id,
			FinishedAt: sp.Start + flows[i].FCT,
		}
		c.Record(&f)
	}
}

// fctTag is one distinct flow tag: its collector ID and how many finished
// flows carry it.
type fctTag struct {
	tag string
	id  int32
	n   int
}

// lookupTag returns tag's entry, interning it on first sight. A schedule
// carries a handful of tags, so a linear scan beats a map lookup per flow.
func lookupTag(c *metrics.FCTCollector, tags *[]fctTag, tag string) *fctTag {
	for i := range *tags {
		if (*tags)[i].tag == tag {
			return &(*tags)[i]
		}
	}
	*tags = append(*tags, fctTag{tag: tag, id: c.Intern(tag)})
	return &(*tags)[len(*tags)-1]
}
