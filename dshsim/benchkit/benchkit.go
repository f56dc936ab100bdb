// Package benchkit holds the repo's performance micro-benchmark kernels and
// the schema-stable JSON emitter behind `make bench-json` and
// `dshbench -bench-json`.
//
// The kernels are plain func(*testing.B) so the same code backs both the
// `go test -bench` entry points (bench_test.go at the repo root) and the
// programmatic collection that appends one comparable point per PR to the
// perf trajectory (BENCH_PR<n>.json at the repo root).
//
// Besides time and allocations, every kernel reports two engine counters
// through b.ReportMetric: "events/op" (simulator events processed per
// benchmark op) and "heap_max" (the event heap's high-water mark). The
// counters carry checked-in budgets in the report schema, so an event-count
// or heap-growth regression fails CI the same way an allocation would.
package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"dsh/dshsim"
	"dsh/internal/flowsim"
	"dsh/internal/sim"
	"dsh/internal/topology"
	"dsh/internal/transport"
	"dsh/internal/wire"
	"dsh/units"
)

// engineTick is a self-rescheduling action: each dispatch re-arms the timer
// until the budget is spent, so the engine runs at steady state (heap size 1).
type engineTick struct {
	s    *sim.Simulator
	left int
}

func (t *engineTick) Run(any, int64) {
	t.left--
	if t.left > 0 {
		t.s.ScheduleAction(1, t, nil, 0)
	}
}

// EventEngine measures the raw scheduler: one schedule + dispatch of a
// pre-bound action per op on a warm engine. The tentpole target is
// 0 allocs/op here.
func EventEngine(b *testing.B) {
	s := sim.New()
	t := &engineTick{s: s, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleAction(1, t, nil, 0)
	s.Run()
	b.StopTimer()
	b.ReportMetric(float64(s.Processed())/float64(b.N), "events/op")
	b.ReportMetric(float64(s.HeapMax()), "heap_max")
}

// Forwarding measures the steady-state packet forwarding path: one switch,
// two hosts, one long line-rate flow of exactly b.N MTU packets. Per-op cost
// is per data packet end to end (inject → switch enqueue/dequeue → deliver →
// ACK back), the hot path every macro experiment is made of.
func Forwarding(b *testing.B) {
	cfg := topology.Config{Scheme: topology.DSH, Buffer: 16 * units.MB, Seed: 1}
	net := topology.SingleSwitch(cfg, 2, 100*units.Gbps)
	payload := net.Cfg.MTU - net.Cfg.Header
	f := &transport.Flow{
		ID: 1, Src: 0, Dst: 1, Class: 0,
		Size: units.ByteSize(b.N) * payload,
		CC:   transport.NewLineRate(),
	}
	net.AddFlow(f)
	b.ReportAllocs()
	b.ResetTimer()
	net.Sim.Run()
	b.StopTimer()
	if !f.Done() {
		b.Fatal("forwarding flow did not complete")
	}
	b.ReportMetric(float64(net.Sim.Processed())/float64(b.N), "events/op")
	b.ReportMetric(float64(net.Sim.HeapMax()), "heap_max")
}

// ForwardingTrace measures the same steady-state forwarding path with
// trace capture enabled: every departure of every port is packed into a
// wire frame and streamed to a discarded writer. Its 0 allocs/op budget is
// the wire format's tentpole guarantee — capture costs cycles and bytes on
// the hot path, never allocations — and the event/heap budgets pin that
// tracing adds no simulator events.
func ForwardingTrace(b *testing.B) {
	cfg := topology.Config{Scheme: topology.DSH, Buffer: 16 * units.MB, Seed: 1}
	net := topology.SingleSwitch(cfg, 2, 100*units.Gbps)
	tw, err := wire.NewTraceWriter(io.Discard, "forwarding", 1)
	if err != nil {
		b.Fatal(err)
	}
	id := int32(0)
	for _, h := range net.Hosts {
		h.Port().SetTracer(tw, id)
		id++
	}
	for _, sw := range net.Switches {
		for i := 0; i < sw.Ports(); i++ {
			sw.Port(i).SetTracer(tw, id)
			id++
		}
	}
	payload := net.Cfg.MTU - net.Cfg.Header
	f := &transport.Flow{
		ID: 1, Src: 0, Dst: 1, Class: 0,
		Size: units.ByteSize(b.N) * payload,
		CC:   transport.NewLineRate(),
	}
	net.AddFlow(f)
	b.ReportAllocs()
	b.ResetTimer()
	net.Sim.Run()
	b.StopTimer()
	if !f.Done() {
		b.Fatal("forwarding flow did not complete")
	}
	if err := tw.Err(); err != nil {
		b.Fatalf("trace writer failed: %v", err)
	}
	if tw.Frames() == 0 {
		b.Fatal("trace capture saw no departures")
	}
	b.ReportMetric(float64(net.Sim.Processed())/float64(b.N), "events/op")
	b.ReportMetric(float64(net.Sim.HeapMax()), "heap_max")
}

// benchSeries builds the deterministic synthetic per-run series the encode
// kernel pair serializes: 4 tags × 2048 flow records plus a 512-bin pause
// series, with value ranges matching real runs (µs-scale FCTs, KB–MB
// flows) so the JSON digit counts — and thus the size comparison — are
// representative.
func benchSeries() *wire.RunSeries {
	s := &wire.RunSeries{
		Label:      "bench/encode",
		PauseBinPs: int64(10 * units.Microsecond),
	}
	rng := uint64(1)
	next := func(mod int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33) % mod
	}
	for t := 0; t < 4; t++ {
		fct := make([]int64, 2048)
		size := make([]int64, 2048)
		for i := range fct {
			fct[i] = int64(units.Microsecond) + next(int64(500*units.Microsecond))
			size[i] = 1024 + next(int64(4*units.MB))
		}
		s.Tags = append(s.Tags, fmt.Sprintf("tag%d", t))
		s.FCTPs = append(s.FCTPs, fct)
		s.SizeB = append(s.SizeB, size)
	}
	s.PausePs = make([]int64, 512)
	for i := range s.PausePs {
		s.PausePs[i] = next(int64(units.Millisecond))
	}
	return s
}

// ResultEncodeJSON measures the reference result encoding: one
// json.MarshalIndent of the synthetic run series per op, the way results
// were serialized before the wire format. Its "encoded_bytes" metric is
// the denominator of the wire_bytes_ratio size comparison.
func ResultEncodeJSON(b *testing.B) {
	s := benchSeries()
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		n = len(doc)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "encoded_bytes")
}

// ResultEncodeWire measures the packed twin: one AppendRunSeries of the
// same series into a reused buffer per op. The 0 allocs/op budget holds
// because the buffer is pre-warmed once; deriveWire turns the pair into
// wire_speedup (≥5× floor) and wire_bytes_ratio (≤0.5 budget).
func ResultEncodeWire(b *testing.B) {
	s := benchSeries()
	buf, err := wire.AppendRunSeries(nil, s)
	if err != nil {
		b.Fatal(err)
	}
	size := len(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = wire.AppendRunSeries(buf[:0], s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(buf) != size {
		b.Fatalf("encode size changed between ops: %d then %d", size, len(buf))
	}
	b.ReportMetric(float64(size), "encoded_bytes")
}

// Incast measures a complete 16:1 incast run (64 KB per sender, drained),
// including network construction — the unit the Fig. 11/14 sweeps repeat.
func Incast(b *testing.B) {
	const fanIn = 16
	var events uint64
	heapMax := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nc := dshsim.NetworkConfig{
			Scheme: dshsim.DSH, Transport: dshsim.TransportNone,
			Buffer: 16 * units.MB, Seed: 1,
		}
		net := dshsim.NewSingleSwitch(nc, fanIn+2, 100*units.Gbps)
		specs := make([]dshsim.FlowSpec, fanIn)
		for j := range specs {
			specs[j] = dshsim.FlowSpec{
				ID: j + 1, Src: j, Dst: fanIn, Size: 64 * units.KB,
				Class: 0, Tag: "fanin",
			}
		}
		res := dshsim.Run(net, dshsim.RunConfig{
			Specs: specs, Duration: units.Millisecond, Drain: true,
		})
		if res.Unfinished != 0 {
			b.Fatalf("incast left %d flows unfinished", res.Unfinished)
		}
		events += res.Events
		if res.HeapMax > heapMax {
			heapMax = res.HeapMax
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(heapMax), "heap_max")
}

// Fig11 measures the full Fig. 11 PFC-avoidance sweep (12 paired runs,
// serial so the number is scheduling-noise free) — the repo's heaviest
// single-switch micro-benchmark.
func Fig11(b *testing.B) {
	st := &dshsim.SweepStats{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := dshsim.Fig11(dshsim.ExpOptions{Seed: 1, Workers: 1, Stats: st})
		if len(rows) == 0 {
			b.Fatal("fig11 returned no rows")
		}
	}
	b.ReportMetric(float64(st.Events())/float64(b.N), "events/op")
	b.ReportMetric(float64(st.HeapMax()), "heap_max")
}

// Fig11Point measures one full-scale Fig. 11 burst point (DSH, 60% burst)
// on the classic single-heap engine. It is the serial baseline for the
// intra-run parallelism kernel below; collect() derives lp_speedup from the
// pair.
func Fig11Point(b *testing.B) { fig11Point(b, 0) }

// Fig11PointLP4 measures the same burst point with the fabric partitioned
// into per-device logical processes and 4 LP workers driving the
// epoch-barrier scheduler. Results are bit-identical to the serial kernel's
// partitioned run by the engine's determinism contract; only wall-clock may
// differ, and only on a multi-core host.
func Fig11PointLP4(b *testing.B) { fig11Point(b, 4) }

func fig11Point(b *testing.B, lpWorkers int) {
	st := &dshsim.SweepStats{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := dshsim.Fig11Point(dshsim.DSH, 60, 1, lpWorkers, st); d < 0 {
			b.Fatal("fig11 point returned a negative pause duration")
		}
	}
	reportEngineCounters(b, st, lpWorkers)
}

// FatTreePoint measures one paper-scale fat-tree load point (k=16, 1024
// hosts, DCQCN + web search) on the classic single-heap engine — the
// fabric the -full sweeps run, at a bench-sized horizon. It is the serial
// baseline of the second lp_speedup pair.
func FatTreePoint(b *testing.B) { fatTreePoint(b, 0) }

// FatTreePointLP4 measures the same fat-tree point with the fabric
// partitioned into per-device logical processes and 4 LP workers. Unlike
// the single-switch pair, the 1024-host LP graph amortises the epoch
// machinery over ~10k events per epoch, and the per-LP heaps are orders of
// magnitude smaller than the classic engine's — so this kernel beats its
// serial twin even on a single core.
func FatTreePointLP4(b *testing.B) { fatTreePoint(b, 4) }

func fatTreePoint(b *testing.B, lpWorkers int) {
	st := &dshsim.SweepStats{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if done := dshsim.FatTreePoint(dshsim.DSH, 1, lpWorkers, st); done == 0 {
			b.Fatal("fat-tree point completed no flows")
		}
	}
	reportEngineCounters(b, st, lpWorkers)
}

// scaleBenchTarget is the flow count of the fidelity kernel pair: the
// 10⁵-flow point of the scale family, the scale at which the flow-level
// fast-forwarder's ≥50× speedup claim is recorded and gated.
const scaleBenchTarget = 100_000

// ScalePointPacket measures one 10⁵-flow scale point (DSH, DCQCN,
// leaf–spine) at packet fidelity — the baseline of the fidelity speedup
// pair, and the slowest kernel in the suite by design: its ns/op is the
// cost the flow-level engine fast-forwards away.
func ScalePointPacket(b *testing.B) { scalePoint(b, dshsim.FidelityPacket) }

// ScalePointFlow measures the same 10⁵-flow scale point at flow fidelity.
// collect() derives fidelity_speedup (packet ns/op ÷ flow ns/op, floor 50×)
// and the fct_err_p50/p99 accuracy fields from this pair.
func ScalePointFlow(b *testing.B) { scalePoint(b, dshsim.FidelityFlow) }

// FlowsimRun measures the fluid engine alone: flowsim.Run over the DSH
// 10⁵-flow scale point's prebuilt link graph and specs, with the topology
// build, schedule, path walk and FCT records of ScalePointFlow excluded —
// the two kernels side by side separate engine time from dshsim glue.
func FlowsimRun(b *testing.B) {
	cfg, specs, horizon := dshsim.ScalePointFlowInputs(dshsim.DSH, scaleBenchTarget, 1)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := flowsim.Run(cfg, specs, horizon)
		if res.Unfinished == len(specs) {
			b.Fatal("fluid engine finished no flows")
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func scalePoint(b *testing.B, fidelity string) {
	st := &dshsim.SweepStats{}
	var last dshsim.ScaleSchemeStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats, flows, _ := dshsim.ScalePoint(dshsim.DSH, fidelity, scaleBenchTarget, 1, 0, st)
		if stats.Completed == 0 || flows == 0 {
			b.Fatalf("scale point at %s fidelity completed no flows", fidelity)
		}
		last = stats
	}
	b.ReportMetric(float64(st.Events())/float64(b.N), "events/op")
	b.ReportMetric(float64(st.HeapMax()), "heap_max")
	// FCT percentiles (µs) ride along so collect() can derive the
	// flow-vs-packet error fields without a second run of either engine.
	b.ReportMetric(float64(last.P50)/float64(units.Microsecond), "fct_p50")
	b.ReportMetric(float64(last.P99)/float64(units.Microsecond), "fct_p99")
}

// reportEngineCounters emits the engine metrics every kernel reports, plus
// the partitioned-engine counters (barrier epochs per op and the measured
// LP balance ratio) on the LP kernels.
func reportEngineCounters(b *testing.B, st *dshsim.SweepStats, lpWorkers int) {
	b.ReportMetric(float64(st.Events())/float64(b.N), "events/op")
	b.ReportMetric(float64(st.HeapMax()), "heap_max")
	if lpWorkers > 0 {
		b.ReportMetric(float64(st.Epochs())/float64(b.N), "epochs")
		b.ReportMetric(st.LPBalance(), "lp_balance")
	}
}
