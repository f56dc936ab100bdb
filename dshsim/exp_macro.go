package dshsim

import (
	"fmt"
	"math"
	"math/rand"

	"dsh/internal/metrics"
	"dsh/internal/packet"
	"dsh/internal/workload"
	"dsh/units"
)

func logf64(x float64) float64 { return math.Log(x) }

// paperPressureBuffers sizes a reduced switch so its SIH worst-case
// reservation is the same fraction of buffer as its paper-scale
// counterpart: the 32-port Tomahawk leaf reserves ~84% of 16 MB, the
// 16-port spine (and the 16-port fat-tree switches) ~42%.
func paperPressureBuffers(name string, sihReservation units.ByteSize, _ units.BitRate) units.ByteSize {
	frac := 0.42
	if len(name) > 0 && name[0] == 'l' {
		frac = 0.84
	}
	return units.ByteSize(float64(sihReservation) / frac)
}

// evalNetConfig is the switch configuration of the §V-B evaluation runs:
// buffers sized by paperPressureBuffers at reduced scale, the 16 MB
// Tomahawk buffer at full scale.
func evalNetConfig(opt ExpOptions, scheme Scheme, tr TransportKind, seed int64) NetworkConfig {
	nc := NetworkConfig{Scheme: scheme, Transport: tr, Seed: seed, LPWorkers: opt.LPWorkers}
	if opt.Full {
		nc.Buffer = 16 * units.MB
	} else {
		nc.bufferHook = paperPressureBuffers
	}
	return nc
}

// fabricParams describes the benchmark leaf–spine fabric at the selected
// scale.
type fabricParams struct {
	leaves, spines, hostsPerLeaf int
	rate                         units.BitRate
	duration                     units.Time
	fanIn                        int
}

func fabric(opt ExpOptions) fabricParams {
	if opt.testFabric != nil {
		return *opt.testFabric
	}
	if opt.Full {
		// §V-B: 16 leaves × 16 hosts, 16 spines, 100 GbE, full bisection.
		return fabricParams{16, 16, 16, 100 * units.Gbps, 50 * units.Millisecond, 16}
	}
	// Reduced: 4 leaves × 8 hosts, 8 spines (full bisection), short run.
	return fabricParams{4, 8, 8, 100 * units.Gbps, 3 * units.Millisecond, 16}
}

// bgClasses are the classes background flows spread over (fan-in uses 0,
// ACKs use 7).
func bgClasses() []packet.Class { return []packet.Class{1, 2, 3, 4, 5, 6} }

// mixedSpecs builds the §V-B workload: background one-to-one flows from
// dist at bgLoad plus 16-way 64 KB incast at (totalLoad − bgLoad).
func mixedSpecs(rng *rand.Rand, racks [][]int, dist *SizeDist, bgLoad, totalLoad float64,
	rate units.BitRate, duration units.Time, fanIn int) []FlowSpec {
	var hosts []int
	for _, r := range racks {
		hosts = append(hosts, r...)
	}
	bg := workload.Background{
		Hosts: hosts, Dist: dist, Load: bgLoad, HostRate: rate, Classes: bgClasses(),
	}
	specs := bg.Generate(rng, duration, 0)
	if fanLoad := totalLoad - bgLoad; fanLoad > 0 {
		ic := workload.Incast{
			Racks: racks, FanIn: fanIn, FlowSize: 64 * 1024,
			Load: fanLoad, HostRate: rate, Class: 0,
		}
		specs = append(specs, ic.Generate(rng, duration, 1_000_000)...)
	}
	return specs
}

// LoadPoint is one (scheme-paired) measurement of Fig. 14/15: average FCTs
// under SIH and DSH for the same workload.
type LoadPoint struct {
	BgLoad float64

	SIHBg    units.Time
	DSHBg    units.Time
	SIHFanin units.Time
	DSHFanin units.Time

	// P99 of background FCT over the paired flow set.
	SIHBgP99 units.Time
	DSHBgP99 units.Time

	SIHUnfinished, DSHUnfinished int
}

// NormBg returns DSH/SIH for background traffic (<1 means DSH wins).
func (p LoadPoint) NormBg() float64 { return ratio(p.DSHBg, p.SIHBg) }

// NormFanin returns DSH/SIH for fan-in traffic.
func (p LoadPoint) NormFanin() float64 { return ratio(p.DSHFanin, p.SIHFanin) }

func ratio(a, b units.Time) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// Fig14Row groups one transport's load sweep.
type Fig14Row struct {
	Transport TransportKind
	Points    []LoadPoint
}

// Fig14 reproduces the large-scale load sweep (Fig. 14): leaf–spine
// fabric, web-search background at load 0.2–0.8 plus 16-way incast filling
// to total load 0.9, under DCQCN and PowerTCP. Both schemes see identical
// flow schedules.
func Fig14(opt ExpOptions) []Fig14Row {
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	if opt.Full {
		loads = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	}
	if opt.testLoads != nil {
		loads = opt.testLoads
	}
	transports := []TransportKind{TransportDCQCN, TransportPowerTCP}
	n := len(transports) * len(loads)
	// The point seed depends on the load only: both transports (and, inside
	// runLoadPoint, both schemes) see the same flow schedule at a given
	// load, keeping every column of the figure a paired comparison.
	points := sweep(opt, "fig14", n,
		func(i int) string {
			return fmt.Sprintf("%s bg=%.1f", transports[i/len(loads)], loads[i%len(loads)])
		},
		func(i int) LoadPoint {
			ti, li := i/len(loads), i%len(loads)
			return runLoadPoint(opt, transports[ti], WebSearch(), loads[li], "leafspine",
				deriveSeed(opt.Seed, "fig14", li, 0))
		})
	var rows []Fig14Row
	for ti, tr := range transports {
		rows = append(rows, Fig14Row{Transport: tr, Points: points[ti*len(loads) : (ti+1)*len(loads)]})
	}
	return rows
}

// Fig15Row groups one workload/topology variant's load sweep (DCQCN).
type Fig15Row struct {
	Name     string // "datamining", "cache", "hadoop", "fattree+websearch"
	Topology string
	Points   []LoadPoint
}

// Fig15 reproduces the workload/topology sweep (Fig. 15) with DCQCN:
// leaf–spine with data-mining, cache, and Hadoop backgrounds, and a
// fat-tree with web search.
func Fig15(opt ExpOptions) []Fig15Row {
	loads := []float64{0.3, 0.5, 0.7}
	if opt.Full {
		loads = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	}
	variants := []struct {
		name, topo string
		dist       *SizeDist
	}{
		{"datamining", "leafspine", DataMining()},
		{"cache", "leafspine", Cache()},
		{"hadoop", "leafspine", Hadoop()},
		{"websearch", "fattree", WebSearch()},
	}
	n := len(variants) * len(loads)
	points := sweep(opt, "fig15", n,
		func(i int) string {
			v := variants[i/len(loads)]
			return fmt.Sprintf("%s/%s bg=%.1f", v.name, v.topo, loads[i%len(loads)])
		},
		func(i int) LoadPoint {
			vi, li := i/len(loads), i%len(loads)
			v := variants[vi]
			return runLoadPoint(opt, TransportDCQCN, v.dist, loads[li], v.topo,
				deriveSeed(opt.Seed, "fig15", vi, li))
		})
	var rows []Fig15Row
	for vi, v := range variants {
		rows = append(rows, Fig15Row{Name: v.name, Topology: v.topo, Points: points[vi*len(loads) : (vi+1)*len(loads)]})
	}
	return rows
}

// LoadPointAt runs one workload point (as in Fig. 14/15) under both
// schemes and returns the paired averages; topo is "leafspine" or
// "fattree".
func LoadPointAt(opt ExpOptions, tr TransportKind, dist *SizeDist, bgLoad float64, topo string) LoadPoint {
	return runLoadPoint(opt, tr, dist, bgLoad, topo, deriveSeed(opt.Seed, "loadpoint", 0, 0))
}

// FatTreePoint runs one paper-scale fat-tree load point — the k=16 fabric
// of the -full sweeps, 1024 hosts — at a bench-sized duration, and returns
// the completed-flow count. Exported for the benchkit pairwise-lookahead
// speedup kernels; lpWorkers selects the engine exactly like
// ExpOptions.LPWorkers, and results are bit-identical for every value. The
// duration is short (the fabric, not the horizon, is what the kernel
// scales) but long enough that tens of millions of events cross LP
// boundaries on every op.
func FatTreePoint(scheme Scheme, seed int64, lpWorkers int, stats *SweepStats) int {
	const (
		k        = 16
		rate     = 100 * units.Gbps
		duration = 200 * units.Microsecond
	)
	nc := NetworkConfig{Scheme: scheme, Transport: TransportDCQCN, Seed: seed, LPWorkers: lpWorkers}
	nc.bufferHook = paperPressureBuffers
	ft := NewFatTree(nc, k, rate)
	rng := rand.New(rand.NewSource(seed))
	specs := mixedSpecs(rng, ft.PodHosts, WebSearch(), 0.5, 0.9, rate, duration, 16)
	res := Run(ft.Network, RunConfig{Specs: specs, Duration: duration, Drain: true, DrainCap: 10 * duration})
	stats.note(res)
	done := 0
	for _, tag := range []string{"background", "fanin"} {
		done += len(res.FCT.Records(tag))
	}
	return done
}

// runLoadPoint runs the same workload — background at bgLoad plus incast
// up to a total load of 0.9 — under SIH and DSH and returns the paired
// averages. Averages are computed over the flows that completed in
// BOTH runs: a scheme that leaves its slowest flows unfinished must not be
// rewarded by having them drop out of its mean. seed drives the point's
// flow schedule and ECN coin flips; both schemes use it identically.
func runLoadPoint(opt ExpOptions, tr TransportKind, dist *SizeDist, bgLoad float64, topo string, seed int64) LoadPoint {
	pt := LoadPoint{BgLoad: bgLoad}
	fcts := map[Scheme]map[int]units.Time{}
	tags := map[int]string{}
	for _, scheme := range pairedSchemes {
		nc := evalNetConfig(opt, scheme, tr, seed)
		var net *Network
		var racks [][]int
		var duration units.Time
		var rate units.BitRate
		fanIn := 16
		switch topo {
		case "leafspine":
			fp := fabric(opt)
			ls := NewLeafSpine(nc, fp.leaves, fp.spines, fp.hostsPerLeaf, fp.rate, fp.rate)
			net, racks, duration, rate, fanIn = ls.Network, ls.LeafHosts, fp.duration, fp.rate, fp.fanIn
		case "fattree":
			k := 4
			duration = 3 * units.Millisecond
			if opt.Full {
				k = 16
				duration = 50 * units.Millisecond
			}
			rate = 100 * units.Gbps
			ft := NewFatTree(nc, k, rate)
			net, racks = ft.Network, ft.PodHosts
			// Sender pool excludes the receiver pod.
			if pool := (k - 1) * k * k / 4; pool < fanIn {
				fanIn = pool / 2
			}
		default:
			panic("dshsim: unknown topology " + topo)
		}
		rng := rand.New(rand.NewSource(seed))
		specs := mixedSpecs(rng, racks, dist, bgLoad, 0.9, rate, duration, fanIn)
		res := Run(net, RunConfig{Specs: specs, Duration: duration, Drain: true, DrainCap: 10 * duration})
		byID := make(map[int]units.Time)
		for _, tag := range []string{"background", "fanin"} {
			for _, r := range res.FCT.Records(tag) {
				byID[r.ID] = r.FCT
				tags[r.ID] = tag
			}
		}
		fcts[scheme] = byID
		if scheme == SIH {
			pt.SIHUnfinished = res.Unfinished
		} else {
			pt.DSHUnfinished = res.Unfinished
		}
	}
	fillPaired(&pt, fcts, tags)
	return pt
}

// fillPaired computes per-tag averages and background tail percentiles over
// the flows completed under BOTH schemes.
func fillPaired(pt *LoadPoint, fcts map[Scheme]map[int]units.Time, tags map[int]string) {
	var sum, n = map[[2]string]units.Time{}, map[[2]string]units.Time{}
	for id, sihFCT := range fcts[SIH] {
		dshFCT, ok := fcts[DSH][id]
		if !ok {
			continue
		}
		tag := tags[id]
		sum[[2]string{"SIH", tag}] += sihFCT
		sum[[2]string{"DSH", tag}] += dshFCT
		n[[2]string{"SIH", tag}]++
		n[[2]string{"DSH", tag}]++
	}
	avg := func(scheme, tag string) units.Time {
		if n[[2]string{scheme, tag}] == 0 {
			return 0
		}
		return sum[[2]string{scheme, tag}] / n[[2]string{scheme, tag}]
	}
	pt.SIHBg, pt.DSHBg = avg("SIH", "background"), avg("DSH", "background")
	pt.SIHFanin, pt.DSHFanin = avg("SIH", "fanin"), avg("DSH", "fanin")
	var sihBgF, dshBgF []float64
	for id, sihFCT := range fcts[SIH] {
		if dshFCT, ok := fcts[DSH][id]; ok && tags[id] == "background" {
			sihBgF = append(sihBgF, float64(sihFCT))
			dshBgF = append(dshBgF, float64(dshFCT))
		}
	}
	pt.SIHBgP99 = units.Time(metrics.NewCDF(sihBgF).Quantile(0.99))
	pt.DSHBgP99 = units.Time(metrics.NewCDF(dshBgF).Quantile(0.99))
}

// Fig5Row is one point of the buffer-size sweep (Fig. 5).
type Fig5Row struct {
	Buffer units.ByteSize
	AvgFCT units.Time
	P99FCT units.Time
	// PauseFrames counts PAUSE transitions at host uplinks (diagnostic).
	PauseFrames int64
}

// Fig5 reproduces the motivation experiment: average FCT versus switch
// buffer size (leaf–spine, PowerTCP, web-search at 90% load, SIH — the
// status quo the paper motivates against). Reduced scale shrinks the
// buffer sweep in proportion to the smaller port count.
func Fig5(opt ExpOptions) []Fig5Row {
	// The paper sweeps 14-30 MB on 32-port leaves, whose SIH reservation is
	// ~13 MB; the FCT blow-up happens as the buffer approaches it. The
	// reduced fabric has 16-port leaves (reservation ~6.7 MB), so the sweep
	// covers the same margins above that reservation.
	buffers := []units.ByteSize{14 * units.MB, 18 * units.MB, 22 * units.MB, 26 * units.MB, 30 * units.MB}
	if !opt.Full {
		buffers = []units.ByteSize{6800 * units.KB, 7 * units.MB, 15 * units.MB / 2, 8 * units.MB,
			10 * units.MB, 12 * units.MB, 15 * units.MB}
	}
	fp := fabric(opt)
	// Every buffer size replays the SAME workload (one shared seed): the
	// sweep isolates the effect of the buffer, like the paper's Fig. 5.
	seed := deriveSeed(opt.Seed, "fig5", 0, 0)
	rows := sweep(opt, "fig5", len(buffers),
		func(i int) string { return fmt.Sprintf("buffer %v", buffers[i]) },
		func(i int) Fig5Row {
			buf := buffers[i]
			nc := NetworkConfig{Scheme: SIH, Transport: TransportPowerTCP, Buffer: buf, Seed: seed, LPWorkers: opt.LPWorkers}
			ls := NewLeafSpine(nc, fp.leaves, fp.spines, fp.hostsPerLeaf, fp.rate, fp.rate)
			rng := rand.New(rand.NewSource(seed))
			// Fig. 5 uses a pure web-search workload at 90% load (no incast).
			specs := mixedSpecs(rng, ls.LeafHosts, WebSearch(), 0.9, 0.9, fp.rate, fp.duration, fp.fanIn)
			res := Run(ls.Network, RunConfig{Specs: specs, Duration: fp.duration, Drain: true, DrainCap: 8 * fp.duration})
			return Fig5Row{
				Buffer:      buf,
				AvgFCT:      res.FCT.Avg("background"),
				P99FCT:      res.FCT.Percentile("background", 0.99),
				PauseFrames: res.PauseFrames,
			}
		})
	return rows
}

// Fig6Result summarises the headroom-utilization CDF (Fig. 6).
type Fig6Result struct {
	// Utilization holds per-port local maxima of headroom occupancy divided
	// by the port's reserved headroom, in [0,1].
	Utilization *metrics.CDF
}

// Fig6 reproduces the headroom-utilization measurement: leaf–spine fabric
// under SIH with DCQCN at 90% load; per-port headroom occupancy is sampled
// and its local maxima (the "actual required headroom") are reported as a
// CDF of utilization.
func Fig6(opt ExpOptions) Fig6Result {
	fp := fabric(opt)
	seed := deriveSeed(opt.Seed, "fig6", 0, 0)
	nc := evalNetConfig(opt, SIH, TransportDCQCN, seed)
	ls := NewLeafSpine(nc, fp.leaves, fp.spines, fp.hostsPerLeaf, fp.rate, fp.rate)

	// One tracker per switch port.
	trackers := make(map[[2]int]*metrics.PeakTracker)
	for si, sw := range ls.Switches {
		for p := 0; p < sw.Ports(); p++ {
			trackers[[2]int{si, p}] = &metrics.PeakTracker{}
		}
	}
	const sampleEvery = 10 * units.Microsecond
	var sample func()
	sample = func() {
		for si, sw := range ls.Switches {
			mmu := sw.MMU()
			for p := 0; p < sw.Ports(); p++ {
				hcap := mmu.HeadroomCap(p)
				if hcap <= 0 {
					continue
				}
				trackers[[2]int{si, p}].Feed(float64(mmu.HeadroomUsed(p)) / float64(hcap))
			}
		}
		if ls.Sim.Now() < fp.duration {
			ls.Sim.Schedule(sampleEvery, sample)
		}
	}
	ls.Sim.Schedule(sampleEvery, sample)

	rng := rand.New(rand.NewSource(seed))
	specs := mixedSpecs(rng, ls.LeafHosts, WebSearch(), 0.6, 0.9, fp.rate, fp.duration, fp.fanIn)
	Run(ls.Network, RunConfig{Specs: specs, Duration: fp.duration})

	var peaks []float64
	for _, tr := range trackers {
		tr.Flush()
		peaks = append(peaks, tr.Peaks()...)
	}
	return Fig6Result{Utilization: metrics.NewCDF(peaks)}
}
