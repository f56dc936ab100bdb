// The scale family: FCT distributions for 10⁴→10⁶ flows under DSH vs SIH,
// swept at a selectable fidelity (flow by default — that is the point: the
// packet engine cannot reach 10⁶ flows in reasonable time, the flow-level
// fast-forwarder can). `dshbench -experiment scale -fidelity hybrid` and
// the benchkit ScalePoint kernels drive the same entry points.
package dshsim

import (
	"fmt"
	"math/rand"
	"sort"

	"dsh/internal/flowsim"
	"dsh/internal/metrics"
	"dsh/units"
)

// ScaleSchemeStats is one scheme's outcome at one scale point.
type ScaleSchemeStats struct {
	// Completed and Unfinished partition the scheduled flows.
	Completed  int
	Unfinished int
	// P50 and P99 are FCT percentiles over all completed flows.
	P50 units.Time
	P99 units.Time
	// PausedTime is the run's aggregate PFC stall (packet: host pause
	// accounting; flow: modelled stall behind paused ports).
	PausedTime units.Time
	// HotLinks and PacketFlows are the hybrid/flow diagnostics (zero at
	// packet fidelity). Raw engine event counts are deliberately NOT part
	// of the row: they differ between the classic and LP-partitioned
	// engines (same-timestamp events run in another order), and the serve
	// content key excludes lpWorkers on the promise that rows do not.
	HotLinks    int
	PacketFlows int
}

// ScaleRow is one scale point: the same schedule run under SIH and DSH.
type ScaleRow struct {
	// TargetFlows is the requested scale; Flows the scheduled count the
	// calibrated duration actually produced.
	TargetFlows int
	Flows       int
	// Fidelity is the granularity both schemes ran at.
	Fidelity string
	// Duration is the calibrated schedule horizon.
	Duration units.Time
	SIH      ScaleSchemeStats
	DSH      ScaleSchemeStats
}

// scaleFabric is the fixed fabric every scale point runs on: the reduced
// leaf–spine (4 leaves × 8 hosts, 8 spines, 100 GbE). Holding the fabric
// constant makes the sweep a pure flow-count scaling study, and keeps the
// packet-fidelity validation points affordable.
func scaleFabric(nc NetworkConfig) *LeafSpineTopo {
	return NewLeafSpine(nc, 4, 8, 8, 100*units.Gbps, 100*units.Gbps)
}

// scaleSpecs builds a mixed cache-traffic + incast schedule calibrated to
// approximately target flows: a probe run measures the generator's flow
// yield per unit time, the duration is scaled accordingly, and the
// schedule is regenerated from the same seed. Deterministic in (seed,
// target).
func scaleSpecs(seed int64, racks [][]int, target int) ([]FlowSpec, units.Time) {
	// Moderate load keeps contention localized to the incast victims —
	// the regime hybrid fidelity targets (a fabric hot everywhere would
	// need packet granularity for most flows no matter the classifier).
	const (
		rate      = 100 * units.Gbps
		bgLoad    = 0.25
		totalLoad = 0.4
		fanIn     = 16
		probe     = 500 * units.Microsecond
	)
	dist := Cache()
	n0 := len(mixedSpecs(rand.New(rand.NewSource(seed)), racks, dist, bgLoad, totalLoad, rate, probe, fanIn))
	if n0 == 0 {
		n0 = 1
	}
	dur := units.Time(float64(probe) * float64(target) / float64(n0))
	if dur < probe/8 {
		dur = probe / 8
	}
	specs := mixedSpecs(rand.New(rand.NewSource(seed)), racks, dist, bgLoad, totalLoad, rate, dur, fanIn)
	return specs, dur
}

// ScalePoint runs one scheme at one scale point and returns its stats plus
// the scheduled flow count and calibrated duration. Exported for the
// benchkit fidelity kernels; results are deterministic in (scheme,
// fidelity, target, seed) and independent of lpWorkers.
func ScalePoint(scheme Scheme, fidelity string, target int, seed int64, lpWorkers int, stats *SweepStats) (ScaleSchemeStats, int, units.Time) {
	if !ValidFidelity(fidelity) {
		panic(fmt.Sprintf("dshsim: unknown fidelity %q", fidelity))
	}
	// The fluid engine is serial, and the hybrid mode's rate-capped
	// boundary sources are sensitive to packet delivery order at the
	// nanosecond level — so the non-packet fidelities always run the
	// classic engine, keeping their rows bit-identical across lpWorkers
	// (TestFidelityHybridIndependentOfLPWorkers pins this).
	if fidelity != "" && fidelity != FidelityPacket {
		lpWorkers = 0
	}
	net, rc := scalePointSetup(scheme, target, seed, lpWorkers)
	rc.Fidelity = fidelity
	res := Run(net, rc)
	stats.note(res)
	out := ScaleSchemeStats{
		Completed:   res.FCT.Count(""),
		Unfinished:  res.Unfinished,
		P50:         allFlowPercentile(res.FCT, 0.50),
		P99:         allFlowPercentile(res.FCT, 0.99),
		PausedTime:  res.HostPausedTime,
		HotLinks:    res.HotLinks,
		PacketFlows: res.PacketFlows,
	}
	return out, len(rc.Specs), rc.Duration
}

// scalePointSetup builds one scale point's fabric and its drained run over
// the calibrated schedule.
func scalePointSetup(scheme Scheme, target int, seed int64, lpWorkers int) (*Network, RunConfig) {
	nc := NetworkConfig{Scheme: scheme, Transport: TransportDCQCN, Seed: seed, LPWorkers: lpWorkers}
	nc.bufferHook = paperPressureBuffers
	ls := scaleFabric(nc)
	specs, dur := scaleSpecs(seed, ls.LeafHosts, target)
	return ls.Network, RunConfig{Specs: specs, Duration: dur, Drain: true, DrainCap: 4 * dur}
}

// ScalePointFlowInputs returns exactly what a flow-fidelity ScalePoint
// hands the fluid engine: the link graph, the specs with their resolved
// paths, and the horizon. Exported for the benchkit FlowsimRun kernel,
// which times flowsim.Run without the graph build and path walk.
func ScalePointFlowInputs(scheme Scheme, target int, seed int64) (flowsim.Config, []flowsim.Spec, units.Time) {
	net, rc := scalePointSetup(scheme, target, seed, 0)
	g := buildFlowGraph(net, net.UserData.(*runState).nc)
	return g.cfg, g.flowSpecs(rc.Specs), fidelityHorizon(rc)
}

// allFlowPercentile computes an FCT percentile over every tag's records
// (Collector.Percentile is per-tag; the scale family reports the whole
// population).
func allFlowPercentile(c *metrics.FCTCollector, p float64) units.Time {
	var fcts []units.Time
	for _, tag := range c.Tags() {
		for _, r := range c.Records(tag) {
			fcts = append(fcts, r.FCT)
		}
	}
	if len(fcts) == 0 {
		return 0
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	idx := int(float64(len(fcts))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(fcts) {
		idx = len(fcts) - 1
	}
	return fcts[idx]
}

// scaleTargets returns the swept flow counts: 10⁴→10⁶ in full mode, a
// fast three-point curve otherwise.
func scaleTargets(opt ExpOptions) []int {
	if opt.Full {
		return []int{10_000, 100_000, 1_000_000}
	}
	return []int{500, 2_000, 10_000}
}

// Scale sweeps flow count under SIH and DSH at the selected fidelity
// (ExpOptions.Fidelity, default flow). Each point pairs the schemes on an
// identical schedule; within a fidelity the rows are deterministic and
// JSON-round-trippable, so dshserve can cache them.
func Scale(opt ExpOptions) []ScaleRow {
	fidelity := opt.Fidelity
	if fidelity == "" {
		fidelity = FidelityFlow
	}
	targets := scaleTargets(opt)
	type pointRes struct {
		st    ScaleSchemeStats
		flows int
		dur   units.Time
	}
	points := schemeSweep(opt, "scale", len(targets),
		func(ti int, scheme Scheme) string { return fmt.Sprintf("%s n=%d", scheme, targets[ti]) },
		func(ti int, scheme Scheme) pointRes {
			st, flows, dur := ScalePoint(scheme, fidelity, targets[ti],
				deriveSeed(opt.Seed, "scale", ti, 0), opt.LPWorkers, opt.Stats)
			return pointRes{st, flows, dur}
		})
	rows := make([]ScaleRow, len(targets))
	for ti, target := range targets {
		sih, dsh := points[ti][0], points[ti][1]
		rows[ti] = ScaleRow{
			TargetFlows: target,
			Flows:       sih.flows,
			Fidelity:    fidelity,
			Duration:    sih.dur,
			SIH:         sih.st,
			DSH:         dsh.st,
		}
	}
	return rows
}
