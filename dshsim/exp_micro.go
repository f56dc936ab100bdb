package dshsim

import (
	"fmt"
	"math/rand"

	"dsh/internal/metrics"
	"dsh/internal/workload"
	"dsh/units"
)

// ExpOptions scales the experiment harnesses between laptop-sized defaults
// and the paper's full scale.
type ExpOptions struct {
	// Full reproduces the paper's scale (256-host fabrics, 100 ms runs,
	// 100 repetitions); the default is a reduced configuration that
	// preserves the DSH-vs-SIH shape and finishes in seconds to minutes.
	Full bool
	// Seed drives workload generation and tie-break randomness. Per-point
	// seeds are derived from it via deriveSeed, so every sweep point draws
	// an independent stream.
	Seed int64
	// Workers bounds how many sweep points run concurrently; 0 means
	// runtime.GOMAXPROCS(0). Every simulation is single-goroutine and owns
	// its RNGs, so the results are bit-identical for any worker count;
	// Workers == 1 additionally reproduces the serial execution order.
	Workers int
	// Progress, when non-nil, receives one callback per completed sweep
	// job, as it completes. With Workers > 1 it may be called from worker
	// goroutines (never concurrently with itself).
	Progress func(SweepProgress)
	// Stats, when non-nil, accumulates engine counters (events processed,
	// event-heap high-water mark) across the harness's runs. Currently
	// threaded through the Fig11 harness, which benchkit benchmarks.
	Stats *SweepStats
	// LPWorkers, when positive, runs every simulation on the partitioned
	// parallel engine with this many workers per run (intra-run parallelism;
	// composes with Workers, which parallelizes across sweep points).
	// Results are deterministic for any positive value — LPWorkers:1 and
	// LPWorkers:4 are bit-identical — but follow the partitioned event
	// order, so they may differ from the classic (zero) engine at exact
	// sampling instants. See NetworkConfig.LPWorkers.
	LPWorkers int
	// Fidelity selects the simulation granularity for the families that
	// support it (currently the scale family; see RunConfig.Fidelity).
	// Empty means each family's default — packet everywhere except scale,
	// which defaults to flow.
	Fidelity string

	// testFabric and testLoads are seams for the in-package parallel≡serial
	// equivalence tests: they shrink the leaf–spine fabric and the Fig. 14
	// load sweep so paired Workers:1 vs Workers:N comparisons stay fast.
	// Unexported on purpose — production callers cannot reach them.
	testFabric *fabricParams
	testLoads  []float64
}

// Fig11Row is one point of Fig. 11b: the total PFC pause duration suffered
// by the fan-in senders as a function of burst size.
type Fig11Row struct {
	BurstPct  int // burst size as % of buffer size
	SIHPaused units.Time
	DSHPaused units.Time
}

// Fig11 reproduces the PFC-avoidance microbenchmark (Fig. 11): a Tomahawk
// switch (32×100 GbE, 16 MB), two long-lived background flows into port 31,
// and 16 simultaneous fan-in bursts from ports 2–17 into port 30. It
// reports the total pause duration experienced by the fan-in hosts per
// burst size.
func Fig11(opt ExpOptions) []Fig11Row {
	fractions := []int{5, 10, 20, 30, 40, 50, 60}
	if !opt.Full {
		fractions = []int{5, 10, 20, 30, 40, 50}
	}
	return fig11Sweep(opt, fractions)
}

// fig11Sweep runs the burst sweep over an explicit fraction list: one job
// per (burst size, scheme), both schemes of a point sharing the point's
// derived seed (the paired comparison).
func fig11Sweep(opt ExpOptions, fractions []int) []Fig11Row {
	paused := schemeSweep(opt, "fig11", len(fractions),
		func(pt int, scheme Scheme) string { return fmt.Sprintf("burst %d%% %s", fractions[pt], scheme) },
		func(pt int, scheme Scheme) units.Time {
			return Fig11Point(scheme, fractions[pt], deriveSeed(opt.Seed, "fig11", pt, 0), opt.LPWorkers, opt.Stats)
		})
	rows := make([]Fig11Row, len(fractions))
	for i, pct := range fractions {
		rows[i] = Fig11Row{BurstPct: pct, SIHPaused: paused[i][0], DSHPaused: paused[i][1]}
	}
	return rows
}

// Fig. 11 topology constants, shared with the trace scenario registry
// ("fig11point" in trace.go) so a capture drives the exact experiment.
const (
	fig11Hosts  = 32
	fig11Rate   = 100 * units.Gbps
	fig11Buffer = 16 * units.MB
)

// fig11Schedule builds the Fig. 11 burst-point flow schedule: two
// long-lived background flows into port 31 (they never finish inside the
// horizon) plus a 16-way fan-in burst into port 30 at 1 ms, sized to
// burstPct% of the switch buffer. The horizon covers the burst drain time
// at line rate plus generous slack.
func fig11Schedule(burstPct int) (specs []FlowSpec, horizon units.Time) {
	burstTotal := units.ByteSize(float64(fig11Buffer) * float64(burstPct) / 100)
	perSender := burstTotal / 16
	burstAt := 1 * units.Millisecond
	horizon = burstAt + 4*units.TransmissionTime(burstTotal, fig11Rate) + 4*units.Millisecond

	bgSize := units.BytesInTime(2*horizon, fig11Rate)
	specs = append(specs,
		FlowSpec{ID: 1, Src: 0, Dst: 31, Size: bgSize, Start: 0, Class: 1, Tag: "background"},
		FlowSpec{ID: 2, Src: 1, Dst: 31, Size: bgSize, Start: 0, Class: 1, Tag: "background"},
	)
	for i := 0; i < 16; i++ {
		specs = append(specs, FlowSpec{
			ID: 10 + i, Src: 2 + i, Dst: 30, Size: perSender,
			Start: burstAt, Class: 0, Tag: "fanin",
		})
	}
	return specs, horizon
}

// Fig11Point runs one Fig. 11 burst point and returns the summed fan-in
// pause time. Exported for the benchkit serial-vs-parallel speedup kernel;
// lpWorkers selects the engine exactly like ExpOptions.LPWorkers.
func Fig11Point(scheme Scheme, burstPct int, seed int64, lpWorkers int, stats *SweepStats) units.Time {
	nc := NetworkConfig{Scheme: scheme, Transport: TransportNone, Buffer: fig11Buffer, Seed: seed, LPWorkers: lpWorkers}
	net := NewSingleSwitch(nc, fig11Hosts, fig11Rate)

	specs, horizon := fig11Schedule(burstPct)
	res := Run(net, RunConfig{Specs: specs, Duration: horizon})
	stats.note(res)
	if res.Drops > 0 {
		panic(fmt.Sprintf("dshsim: fig11 violated losslessness (%d drops, scheme %s)", res.Drops, scheme))
	}
	var paused units.Time
	for i := 2; i <= 17; i++ {
		p := net.Hosts[i].Port()
		paused += p.ClassPausedTime(0) + p.PortPausedTime()
	}
	return paused
}

// Fig12Row summarises deadlock behaviour for one scheme/transport pair.
type Fig12Row struct {
	Scheme    Scheme
	Transport TransportKind
	Runs      int
	Deadlocks int
	// Onsets are the deadlock onset times of the deadlocked runs.
	Onsets []units.Time
}

// DeadlockFraction returns the share of runs that deadlocked.
func (r Fig12Row) DeadlockFraction() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Deadlocks) / float64(r.Runs)
}

// Fig12 reproduces the deadlock-avoidance experiment (Fig. 12): the
// 2-spine/4-leaf topology with failed links S0–L3 and S1–L0, fan-in flows
// between leaf pairs (L0↔L3, L1↔L2) with Hadoop sizes at load 0.5, and a
// cyclic-buffer-dependency detector. It reports deadlock counts and onset
// times per scheme and transport.
func Fig12(opt ExpOptions) []Fig12Row {
	// Reduced scale keeps the paper's 2:1 leaf oversubscription and sizes
	// buffers by capacity so the pause pressure matches the full setup.
	runs, hostsPerLeaf, duration, upRate := 10, 4, 10*units.Millisecond, 100*units.Gbps
	if opt.Full {
		runs, hostsPerLeaf, duration, upRate = 100, 16, 100*units.Millisecond, 400*units.Gbps
	}
	return fig12Campaign(opt, runs, hostsPerLeaf, upRate, duration)
}

// Fig12Reduced runs the deadlock campaign with an explicit repetition count
// and duration (used by the bench harness for quick paired comparisons).
func Fig12Reduced(opt ExpOptions, runs int, duration units.Time) []Fig12Row {
	return fig12Campaign(opt, runs, 4, 100*units.Gbps, duration)
}

// fig12Campaign submits every (transport × repetition × scheme) of the
// deadlock experiment as one executor job. The seed of a repetition depends
// on the transport and the run index but NOT on the scheme, so SIH and DSH
// face identical workloads run for run — the paired comparison the figure
// plots — while every repetition draws an independent stream.
func fig12Campaign(opt ExpOptions, runs, hostsPerLeaf int, upRate units.BitRate, duration units.Time) []Fig12Row {
	transports := []TransportKind{TransportDCQCN, TransportPowerTCP}
	onsets := schemeSweep(opt, "fig12", len(transports)*runs,
		func(i int, scheme Scheme) string {
			return fmt.Sprintf("%s/%s run %d", scheme, transports[i/runs], i%runs)
		},
		func(i int, scheme Scheme) units.Time {
			seed := deriveSeed(opt.Seed, "fig12", i/runs, i%runs)
			return fig12Run(scheme, transports[i/runs], hostsPerLeaf, upRate, duration, seed, opt.LPWorkers)
		})
	var rows []Fig12Row
	for ti, tr := range transports {
		for si, scheme := range pairedSchemes {
			variant := make([]units.Time, runs)
			for run := range variant {
				variant[run] = onsets[ti*runs+run][si]
			}
			rows = append(rows, fig12Row(scheme, tr, variant))
		}
	}
	return rows
}

// fig12Row folds one variant's per-run deadlock onsets (negative = the run
// did not deadlock) into its summary row.
func fig12Row(scheme Scheme, tr TransportKind, onsets []units.Time) Fig12Row {
	row := Fig12Row{Scheme: scheme, Transport: tr, Runs: len(onsets)}
	for _, onset := range onsets {
		if onset >= 0 {
			row.Deadlocks++
			row.Onsets = append(row.Onsets, onset)
		}
	}
	return row
}

func fig12Run(scheme Scheme, tr TransportKind, hostsPerLeaf int, upRate units.BitRate, duration units.Time, seed int64, lpWorkers int) units.Time {
	nc := NetworkConfig{Scheme: scheme, Transport: tr, Seed: seed,
		BufferPerCapacity: 40 * units.Microsecond, LPWorkers: lpWorkers}
	dt := NewDeadlock(nc, hostsPerLeaf, 100*units.Gbps, upRate)
	rng := rand.New(rand.NewSource(seed))
	specs := deadlockWorkload(rng, dt, duration)
	res := Run(dt.Network, RunConfig{Specs: specs, Duration: duration,
		DetectDeadlock: true, DeadlockInterval: 50 * units.Microsecond, DeadlockConfirm: 3})
	return res.DeadlockOnset
}

// deadlockWorkload generates directed fan-in traffic for the four leaf
// pairs of Fig. 12a: Poisson group arrivals at downlink load 0.5, each
// group being 1–15 concurrent senders from the source leaf to one receiver
// in the destination leaf, sizes from the Hadoop distribution.
func deadlockWorkload(rng *rand.Rand, dt *DeadlockTopo, duration units.Time) []FlowSpec {
	pairs := [][2]int{{0, 3}, {3, 0}, {1, 2}, {2, 1}}
	dist := workload.Hadoop()
	const load = 0.5
	hostsPerLeaf := len(dt.LeafHosts[0])
	// Per destination leaf: load×capacity bytes/s; mean group = E[K]·mean.
	bytesPerSec := load * float64(hostsPerLeaf) * float64(100*units.Gbps) / 8
	meanGroup := 8.0 * float64(dist.Mean()) // E[K] = 8 for K ~ U{1..15}
	meanGapPs := float64(units.Second) / (bytesPerSec / meanGroup)

	var specs []FlowSpec
	id := 1
	for _, pair := range pairs {
		src, dst := dt.LeafHosts[pair[0]], dt.LeafHosts[pair[1]]
		for t := expGap(rng, meanGapPs); t < float64(duration); t += expGap(rng, meanGapPs) {
			k := 1 + rng.Intn(15)
			recv := dst[rng.Intn(len(dst))]
			perm := rng.Perm(len(src))
			if k > len(src) {
				k = len(src)
			}
			for j := 0; j < k; j++ {
				specs = append(specs, FlowSpec{
					ID: id, Src: src[perm[j]], Dst: recv,
					Size: dist.Sample(rng), Start: units.Time(t),
					Class: 0, Tag: "fanin",
				})
				id++
			}
		}
	}
	return specs
}

func expGap(rng *rand.Rand, meanPs float64) float64 {
	u := rng.Float64()
	// Avoid log(0).
	if u >= 1 {
		u = 0.999999
	}
	return -meanPs * logf64(1-u)
}

// Fig13Row is one scheme/transport variant's F0 throughput time series.
type Fig13Row struct {
	Scheme    Scheme
	Transport TransportKind
	// Bin is the sampling window; Series is F0's goodput per bin.
	Bin    units.Time
	Series []units.BitRate
	// BurstAt is when the fan-in burst started.
	BurstAt units.Time
}

// MinDuringBurst returns F0's lowest goodput in the window after the burst.
func (r Fig13Row) MinDuringBurst() units.BitRate {
	start := int(r.BurstAt / r.Bin)
	if start >= len(r.Series) {
		return 0
	}
	lo := r.Series[start]
	for _, v := range r.Series[start:] {
		if v < lo {
			lo = v
		}
	}
	return lo
}

// Fig13 reproduces the collateral-damage experiment (Fig. 13): long-lived
// F0 (H0→R0, innocent) and F1 (H1→R1) at ~50 Gbps each across the S0–S1
// link, then 24 concurrent 64 KB fan-in flows into R1. It reports F0's
// goodput time series for each transport and scheme.
func Fig13(opt ExpOptions) []Fig13Row {
	transports := []TransportKind{TransportNone, TransportDCQCN, TransportPowerTCP}
	pairs := schemeSweep(opt, "fig13", len(transports),
		func(ti int, scheme Scheme) string { return fmt.Sprintf("%s/%s", scheme, transports[ti]) },
		func(ti int, scheme Scheme) Fig13Row {
			// Both schemes of a transport share the point seed (the seed
			// only drives ECN coin flips; pairing keeps them comparable).
			return fig13Run(scheme, transports[ti], deriveSeed(opt.Seed, "fig13", ti, 0), opt.LPWorkers)
		})
	var rows []Fig13Row
	for _, p := range pairs {
		rows = append(rows, p[:]...)
	}
	return rows
}

func fig13Run(scheme Scheme, tr TransportKind, seed int64, lpWorkers int) Fig13Row {
	const (
		fanIn = 24
		rate  = 100 * units.Gbps
		bin   = 10 * units.Microsecond
	)
	// The paper bursts only after F0/F1 have converged to ~50 Gbps.
	// DCQCN recovers from its initial rate crash in milliseconds; the
	// window transports converge much faster.
	var burstAt units.Time
	switch tr {
	case TransportDCQCN:
		burstAt = 4 * units.Millisecond
	case TransportPowerTCP:
		burstAt = 500 * units.Microsecond
	default:
		burstAt = 200 * units.Microsecond
	}
	horizon := burstAt + 600*units.Microsecond

	nc := NetworkConfig{Scheme: scheme, Transport: tr, Seed: seed, LPWorkers: lpWorkers}
	cd := NewCollateralUnit(nc, fanIn, rate)

	bgSize := units.BytesInTime(2*horizon, rate)
	specs := []FlowSpec{
		{ID: 1, Src: cd.H0, Dst: cd.R0, Size: bgSize, Start: 0, Class: 0, Tag: "F0"},
		{ID: 2, Src: cd.H1, Dst: cd.R1, Size: bgSize, Start: 0, Class: 0, Tag: "F1"},
	}
	for i, h := range cd.FanHosts {
		specs = append(specs, FlowSpec{
			ID: 10 + i, Src: h, Dst: cd.R1, Size: 64 * 1024,
			Start: burstAt, Class: 0, Tag: "fanin",
		})
	}
	// Sample R0's received payload every bin; R0 receives only F0.
	meter := metrics.NewThroughputMeter(bin)
	r0 := cd.Hosts[cd.R0]
	var prev units.ByteSize
	var sample func()
	sample = func() {
		cur := r0.RxDataBytes()
		meter.Add(cd.Sim.Now()-1, cur-prev) // attribute to the ending bin
		prev = cur
		if cd.Sim.Now() < horizon {
			cd.Sim.Schedule(bin, sample)
		}
	}
	cd.Sim.Schedule(bin, sample)

	Run(cd.Network, RunConfig{Specs: specs, Duration: horizon})
	return Fig13Row{
		Scheme: scheme, Transport: tr, Bin: bin, Series: meter.Series(), BurstAt: burstAt,
	}
}
