package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"dsh/dshsim"
	"dsh/internal/eport"
	"dsh/units"
)

const linkRate = 100 * units.Gbps

// drainCap bounds the drain of the packet workloads. A web-search flow of
// up to 30 MB needs 2.4 ms at line rate on its own, so a late one outlives
// a short horizon by far; the drain ends as soon as every flow completes.
const drainCap = 20 * units.Millisecond

// simWorkload is a workload whose op is one SIH run plus one DSH run of the
// same seeded schedule, each on a freshly built network.
type simWorkload struct {
	// engine names the layer dshsim.Run exercises: "sim" (classic engine),
	// "lp" (partitioned engine) or "flowsim" (flow fidelity).
	engine string
	nc     dshsim.NetworkConfig
	// build makes one scheme's network through a dshsim.New* call and
	// returns the host groups the schedule's incast spreads over.
	build func(nc dshsim.NetworkConfig) (*dshsim.Network, [][]int)
	// schedule generates the op's flows from a seeded generator.
	schedule func(rng *rand.Rand, racks [][]int) []dshsim.FlowSpec
	rc       dshsim.RunConfig
}

// mixedSchedule is the §V-B traffic mix: one-to-one background flows from
// dist at bgLoad plus fanIn-way 64 KB incast up to totalLoad, offered over
// horizon. Each generator's Poisson arrivals are cut at the bytes its load
// offers over horizon (the last flow trimmed to fit), so every seed offers
// the same work: with about a hundred heavy-tailed web-search flows per
// schedule, the offered bytes of a time-cut schedule vary by ±15% between
// seeds, and the simulation time with them.
func mixedSchedule(rng *rand.Rand, racks [][]int, dist *dshsim.SizeDist, bgLoad, totalLoad float64,
	horizon units.Time, fanIn int) []dshsim.FlowSpec {
	var hosts []int
	for _, r := range racks {
		hosts = append(hosts, r...)
	}
	budget := func(load float64) units.ByteSize {
		return units.ByteSize(load * float64(len(hosts)) * float64(linkRate) / 8 * horizon.Seconds())
	}
	bg := dshsim.Background{Hosts: hosts, Dist: dist, Load: bgLoad, HostRate: linkRate,
		Classes: []dshsim.Class{1, 2, 3, 4, 5, 6}}
	specs := byteBudget(func(h units.Time) []dshsim.FlowSpec { return bg.Generate(rng, h, 0) },
		horizon, budget(bgLoad))
	ic := dshsim.Incast{Racks: racks, FanIn: fanIn, FlowSize: 64 * 1024,
		Load: totalLoad - bgLoad, HostRate: linkRate, Class: 0}
	return append(specs, byteBudget(func(h units.Time) []dshsim.FlowSpec { return ic.Generate(rng, h, 1_000_000) },
		horizon, budget(totalLoad-bgLoad))...)
}

// byteBudget generates flows over a little more than the horizon (longer if
// that is not enough) and keeps them in start order until their sizes sum
// to budget.
func byteBudget(gen func(units.Time) []dshsim.FlowSpec, horizon units.Time, budget units.ByteSize) []dshsim.FlowSpec {
	for h := horizon * 5 / 4; ; h *= 2 {
		specs := gen(h)
		var sum units.ByteSize
		for i := range specs {
			sum += specs[i].Size
			if sum >= budget {
				specs[i].Size -= sum - budget
				return specs[:i+1]
			}
		}
	}
}

// leafSpine builds the reduced §V-B fabric: 4 leaves × 8 hosts, 8 spines.
func leafSpine(nc dshsim.NetworkConfig) (*dshsim.Network, [][]int) {
	ls := dshsim.NewLeafSpine(nc, 4, 8, 8, linkRate, linkRate)
	return ls.Network, ls.LeafHosts
}

// newLeafSpineDCQCN is the packet hot path on the default classic engine.
func newLeafSpineDCQCN(toy bool) *simWorkload {
	horizon := 500 * units.Microsecond
	if toy {
		horizon = 20 * units.Microsecond
	}
	return &simWorkload{
		engine: "sim",
		nc:     dshsim.NetworkConfig{Transport: dshsim.TransportDCQCN, SIHReservedFraction: 0.84},
		build:  leafSpine,
		schedule: func(rng *rand.Rand, racks [][]int) []dshsim.FlowSpec {
			return mixedSchedule(rng, racks, dshsim.WebSearch(), 0.5, 0.9, horizon, 16)
		},
		rc: dshsim.RunConfig{Duration: horizon, Drain: true, DrainCap: drainCap},
	}
}

// newFatTreeLP is the partitioned engine with one LP worker per CPU.
func newFatTreeLP(toy bool) *simWorkload {
	k, horizon := 8, 100*units.Microsecond
	if toy {
		k, horizon = 4, 20*units.Microsecond
	}
	// Incast senders come from other pods; a k=4 tree has only 12 of them.
	fanIn := min(16, (k-1)*k*k/8)
	return &simWorkload{
		engine: "lp",
		nc: dshsim.NetworkConfig{Transport: dshsim.TransportPowerTCP, SIHReservedFraction: 0.84,
			LPWorkers: runtime.NumCPU()},
		build: func(nc dshsim.NetworkConfig) (*dshsim.Network, [][]int) {
			ft := dshsim.NewFatTree(nc, k, linkRate)
			return ft.Network, ft.PodHosts
		},
		schedule: func(rng *rand.Rand, racks [][]int) []dshsim.FlowSpec {
			return mixedSchedule(rng, racks, dshsim.WebSearch(), 0.5, 0.9, horizon, fanIn)
		},
		rc: dshsim.RunConfig{Duration: horizon, Drain: true, DrainCap: drainCap},
	}
}

// newScaleFlow is the flow-fidelity engine on a cache-traffic schedule.
func newScaleFlow(toy bool) *simWorkload {
	const bgLoad, totalLoad, fanIn = 0.25, 0.4, 16
	target := 200_000
	if toy {
		target = 2_000
	}
	// Size the horizon so the generators' expected flow count is target.
	dist := dshsim.Cache()
	hostBytesPerSec := 32 * float64(linkRate) / 8
	flowsPerSec := bgLoad*hostBytesPerSec/float64(dist.Mean()) + (totalLoad-bgLoad)*hostBytesPerSec/(64*1024)
	horizon := units.Time(float64(target) / flowsPerSec * float64(units.Second))
	return &simWorkload{
		engine: "flowsim",
		nc:     dshsim.NetworkConfig{Transport: dshsim.TransportDCQCN, SIHReservedFraction: 0.84},
		build:  leafSpine,
		schedule: func(rng *rand.Rand, racks [][]int) []dshsim.FlowSpec {
			return mixedSchedule(rng, racks, dist, bgLoad, totalLoad, horizon, fanIn)
		},
		rc: dshsim.RunConfig{Duration: horizon, Drain: true, DrainCap: 4 * horizon, Fidelity: dshsim.FidelityFlow},
	}
}

var schemes = [2]dshsim.Scheme{dshsim.SIH, dshsim.DSH}

// simCounts are an op's simulated counts. At a fixed seed every field
// repeats exactly, whatever the machine and however fast the simulator.
type simCounts struct {
	flows, ports      int
	events, epochs    uint64
	flowEvents        uint64
	heapMax, hotLinks int
	lpBalance         float64
	simMS             float64
	txBytes, rxBytes  int64
	marks, sentPkts   int64
	rxData, hostTx    int64
	pauseFrames       [2]int64
	pausedUS          [2]float64
	drops             [2]int64
	unfinished        [2]int
	fctP50US          [2]float64
	fctP99US          [2]float64
}

// simOp is one op's measurements.
type simOp struct {
	total      float64 // whole op: setup + runs + reductions
	setup      float64 // network builds + schedule generation
	gen, build float64
	wall, cpu  float64 // dshsim.Run + FCT reduction, both schemes
	runWall    float64
	runCPU     float64
	reduce     float64
	allocMB    float64
	runAllocMB float64
	digest     [32]byte
	counts     simCounts
}

// op runs one op. A panic inside the program is returned as an error.
func (w *simWorkload) op(seed int64, tr *tracer, id int) (o simOp, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	// Collect the previous op's garbage now, so it is not billed to setup.
	runtime.GC()
	alloc0 := totalAllocMB()
	opStart := time.Now()
	root := tr.begin(id, "bench", "op")

	var nets [2]*dshsim.Network
	var racks [][]int
	for i, sc := range schemes {
		nc := w.nc
		nc.Scheme, nc.Seed = sc, seed
		sp := tr.begin(id, "topology", "dshsim.New")
		t := time.Now()
		nets[i], racks = w.build(nc)
		o.build += time.Since(t).Seconds()
		tr.end(sp)
	}
	sp := tr.begin(id, "workload", "Generate")
	t := time.Now()
	specs := w.schedule(rand.New(rand.NewSource(seed)), racks)
	o.gen = time.Since(t).Seconds()
	tr.end(sp)
	o.setup = o.build + o.gen

	c := &o.counts
	c.flows = len(specs)
	h := sha256.New()
	for i, net := range nets {
		rc := w.rc
		rc.Specs = specs
		a := totalAllocMB()
		sp := tr.begin(id, w.engine, "dshsim.Run")
		sw := startWatch()
		res := dshsim.Run(net, rc)
		wall, cpu := sw.elapsed()
		tr.end(sp)
		o.runAllocMB += totalAllocMB() - a
		o.runWall += wall
		o.runCPU += cpu

		sp = tr.begin(id, "metrics", "reduce")
		sw = startWatch()
		p50, p99 := reduceFCT(res)
		rw, rcpu := sw.elapsed()
		tr.end(sp)
		digestResult(h, schemes[i], res)
		o.reduce += rw
		o.wall += wall + rw
		o.cpu += cpu + rcpu

		c.fctP50US[i], c.fctP99US[i] = p50, p99
		c.drops[i] = res.Drops
		c.unfinished[i] = res.Unfinished
		c.heapMax = max(c.heapMax, res.HeapMax)
		c.epochs += res.Epochs
		c.lpBalance += res.LPBalance / 2
		c.hotLinks += res.HotLinks
		if w.engine == "flowsim" {
			c.flowEvents += res.Events
		} else {
			c.events += res.Events
		}
		c.simMS += float64(net.Sim.Now()) / float64(units.Millisecond)
		countNetwork(c, i, net)
	}
	tr.end(root)
	copy(o.digest[:], h.Sum(nil))
	o.total = time.Since(opStart).Seconds()
	o.allocMB = totalAllocMB() - alloc0
	return o, nil
}

// countNetwork adds one scheme's device counters to c.
func countNetwork(c *simCounts, scheme int, net *dshsim.Network) {
	c.ports = 0
	for _, hst := range net.Hosts {
		p := hst.Port()
		c.ports++
		c.txBytes += int64(p.TxBytes())
		c.hostTx += int64(p.TxBytes())
		c.sentPkts += hst.SentPackets()
		c.rxData += int64(hst.RxDataBytes())
		c.pauseFrames[scheme] += p.PauseFrames()
		c.pausedUS[scheme] += pausedUS(p)
	}
	for _, sw := range net.Switches {
		c.marks += sw.Marks()
		for i := 0; i < sw.Ports(); i++ {
			p := sw.Port(i)
			c.ports++
			c.txBytes += int64(p.TxBytes())
			c.rxBytes += int64(sw.RxBytes(i))
			c.pauseFrames[scheme] += p.PauseFrames()
			c.pausedUS[scheme] += pausedUS(p)
		}
	}
}

// pausedUS is the time a port spent paused, at port level or per class.
func pausedUS(p *eport.Port) float64 {
	t := p.PortPausedTime()
	for c := 0; c < p.Classes(); c++ {
		t += p.ClassPausedTime(dshsim.Class(c))
	}
	return float64(t) / float64(units.Microsecond)
}

// reduceFCT is the FCT reduction every consumer of a run performs: the
// p50/p99 over all completed flows, through the program's metrics layer
// (dshsim.NewCDF, as the macro families do).
func reduceFCT(res *dshsim.Result) (p50US, p99US float64) {
	var fcts []float64
	for _, tag := range res.FCT.Tags() {
		for _, r := range res.FCT.Records(tag) {
			fcts = append(fcts, float64(r.FCT)/float64(units.Microsecond))
		}
	}
	cdf := dshsim.NewCDF(fcts)
	return cdf.Quantile(0.50), cdf.Quantile(0.99)
}

// digestResult folds a run's output into the digest: every completion
// record, the drops and the unfinished flows.
func digestResult(h io.Writer, scheme dshsim.Scheme, res *dshsim.Result) {
	buf := make([]byte, 0, 64)
	buf = append(buf, scheme...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Drops))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Unfinished))
	h.Write(buf)
	for _, tag := range res.FCT.Tags() {
		h.Write([]byte(tag))
		for _, r := range res.FCT.Records(tag) {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(r.ID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.FCT))
			h.Write(buf)
		}
	}
}

// runSim runs ops until the time budget is spent and reduces them into a
// report. In trace mode ops alternate untraced and traced, so the tracing
// overhead is measured on the same machine state.
func runSim(w *simWorkload, opt options, r *report) {
	var ops, traced []simOp
	var tracers []*tracer
	var first *simOp
	start := time.Now()
	for id := 0; ; id++ {
		var tr *tracer
		if opt.trace && id%2 == 1 {
			tr = newTracer()
		}
		o, err := w.op(opt.seed, tr, id)
		r.attempted++
		switch {
		case err != nil:
			r.fail("op %d: %v", id, err)
		case o.counts.drops[1] > 0:
			r.fail("op %d: DSH dropped %d packets", id, o.counts.drops[1])
		case o.counts.unfinished[1] > 0:
			r.fail("op %d: DSH left %d flows unfinished after drain", id, o.counts.unfinished[1])
		case first != nil && o.digest != first.digest:
			r.fail("op %d: result digest differs from op 0", id)
		case first != nil && o.counts != first.counts:
			r.fail("op %d: simulated counts differ from op 0", id)
		}
		if err == nil && first == nil {
			first = &o
		}
		if err == nil {
			if tr != nil {
				traced = append(traced, o)
				tracers = append(tracers, tr)
			} else {
				ops = append(ops, o)
			}
		}
		// Start another op only if it is expected to end within the budget.
		el := time.Since(start).Seconds()
		if el+el/float64(id+1) > opt.seconds && (!opt.trace || len(traced) > 0) {
			break
		}
	}
	if first == nil {
		return
	}
	r.digest = fmt.Sprintf("%x", first.digest)
	col := func(src []simOp, f func(simOp) float64) []float64 {
		out := make([]float64, len(src))
		for i, o := range src {
			out[i] = f(o)
		}
		return out
	}
	n := len(ops)
	r.e2e("wall_s", median(col(ops, func(o simOp) float64 { return o.wall })), n)
	r.e2e("cpu_s", median(col(ops, func(o simOp) float64 { return o.cpu })), n)
	r.e2e("setup_s", median(col(ops, func(o simOp) float64 { return o.setup })), n)
	r.e2e("alloc_mb_per_op", median(col(ops, func(o simOp) float64 { return o.allocMB })), n)

	c := first.counts
	r.layer("workload.gen_s", median(col(ops, func(o simOp) float64 { return o.gen })), n)
	r.layer("workload.flows", float64(c.flows), 1)
	r.layer("topology.build_s", median(col(ops, func(o simOp) float64 { return o.build })), n)
	r.layer("topology.ports", float64(c.ports), 1)
	nsPerEvent := func(events uint64) float64 {
		return median(col(ops, func(o simOp) float64 { return o.runWall * 1e9 / float64(events) }))
	}
	switch w.engine {
	case "sim":
		r.layer("sim.ns_per_event", nsPerEvent(c.events), n)
	case "lp":
		r.layer("lp.ns_per_event", nsPerEvent(c.events), n)
		r.layer("lp.epochs", float64(c.epochs), 1)
		r.layer("lp.epochs_per_sim_ms", float64(c.epochs)/c.simMS, 1)
		r.layer("lp.balance", c.lpBalance, 1)
		r.layer("lp.parallelism", median(col(ops, func(o simOp) float64 { return o.runCPU / o.runWall })), n)
	case "flowsim":
		r.layer("flowsim.events", float64(c.flowEvents), 1)
		r.layer("flowsim.ns_per_event", nsPerEvent(c.flowEvents), n)
		r.layer("flowsim.hot_links", float64(c.hotLinks), 1)
		r.layer("flowsim.alloc_mb", median(col(ops, func(o simOp) float64 { return o.runAllocMB })), n)
	}
	if w.engine != "flowsim" {
		r.layer("sim.events", float64(c.events), 1)
		r.layer("sim.heap_max", float64(c.heapMax), 1)
	}
	r.layer("eport.tx_mb", float64(c.txBytes)/1e6, 1)
	r.layer("eport.pause_frames.sih", float64(c.pauseFrames[0]), 1)
	r.layer("eport.pause_frames.dsh", float64(c.pauseFrames[1]), 1)
	r.layer("eport.paused_us.sih", c.pausedUS[0], 1)
	r.layer("eport.paused_us.dsh", c.pausedUS[1], 1)
	r.layer("core.drops.sih", float64(c.drops[0]), 1)
	r.layer("core.drops.dsh", float64(c.drops[1]), 1)
	r.layer("switchdev.rx_mb", float64(c.rxBytes)/1e6, 1)
	r.layer("switchdev.ecn_marks", float64(c.marks), 1)
	r.layer("host.sent_pkts", float64(c.sentPkts), 1)
	if c.hostTx > 0 {
		r.layer("host.goodput_ratio", float64(c.rxData)/float64(c.hostTx), 1)
	}
	r.layer("metrics.reduce_s", median(col(ops, func(o simOp) float64 { return o.reduce })), n)
	r.layer("metrics.fct_p50_us.sih", c.fctP50US[0], 1)
	r.layer("metrics.fct_p50_us.dsh", c.fctP50US[1], 1)
	r.layer("metrics.fct_p99_us.sih", c.fctP99US[0], 1)
	r.layer("metrics.fct_p99_us.dsh", c.fctP99US[1], 1)

	if opt.trace {
		total := func(src []simOp) float64 { return median(col(src, func(o simOp) float64 { return o.total })) }
		r.layer("trace.overhead", total(traced)/total(ops), len(traced))
		r.traceSelf(len(traced), tracers)
	}
}
