// Command perfbench is the repository benchmark. It runs one named workload
// from a seed, times the program's public entry points from outside,
// checks every output, and prints each metric with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a traced run. Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload leafspine_dcqcn --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options configure one benchmark run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// toy shrinks every workload to a few milliseconds of work (self-test).
	toy bool
	// dir holds the run's files: dshserve data directories and span dumps.
	dir string
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"leafspine_dcqcn", "fattree_lp", "scale_flow", "serve_mix"}

// endToEndUnits are the metrics a --trace 0 run reports, with their units.
var endToEndUnits = map[string]string{
	"wall_s":          "s",
	"cpu_s":           "s",
	"setup_s":         "s",
	"alloc_mb_per_op": "MB",
	"peak_rss_mb":     "MB",
}

// traceLayers are the layers whose self time a traced run reports.
var traceLayers = []string{"bench", "workload", "topology", "sim", "lp", "flowsim", "metrics", "http", "serve", "wire"}

// perLayerUnits are the metrics a --trace 1 run reports. A metric a
// workload does not exercise reads 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"workload.gen_s": "s", "workload.flows": "count",
		"topology.build_s": "s", "topology.ports": "count",
		"sim.events": "count", "sim.heap_max": "count", "sim.ns_per_event": "ns",
		"lp.epochs": "count", "lp.epochs_per_sim_ms": "1/ms", "lp.balance": "ratio",
		"lp.ns_per_event": "ns", "lp.parallelism": "ratio",
		"eport.tx_mb": "MB", "eport.pause_frames.sih": "count", "eport.pause_frames.dsh": "count",
		"eport.paused_us.sih": "us", "eport.paused_us.dsh": "us",
		"core.drops.sih": "count", "core.drops.dsh": "count",
		"switchdev.rx_mb": "MB", "switchdev.ecn_marks": "count",
		"host.sent_pkts": "count", "host.goodput_ratio": "ratio",
		"metrics.reduce_s":       "s",
		"metrics.fct_p50_us.sih": "us", "metrics.fct_p50_us.dsh": "us",
		"metrics.fct_p99_us.sih": "us", "metrics.fct_p99_us.dsh": "us",
		"flowsim.events": "count", "flowsim.ns_per_event": "ns", "flowsim.hot_links": "count",
		"flowsim.alloc_mb": "MB",
		"serve.key_us":     "us", "serve.hit_ratio_mem": "ratio", "serve.disk_hits": "count",
		"serve.job_exec_ms": "ms", "serve.queue_wait_ms": "ms", "serve.rejected": "count",
		"wire.encode_us": "us", "wire.decode_us": "us", "wire.bytes_ratio": "ratio",
		"http.rtt_us": "us", "http.resp_kb": "KB",
		"read_ms_p50": "ms", "read_ms_p99": "ms", "job_ms_p50": "ms", "req_per_s": "1/s",
		"error_rate": "ratio", "run.steal_share": "ratio", "trace.overhead": "ratio",
	}
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = "ms"
	}
	return m
}()

// metric is one reported value with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// report accumulates one run's outcome.
type report struct {
	workload          string
	opt               options
	lpWorkers         int
	attempted, failed int
	failures          []string // the first few failure messages
	digest            string
	endToEnd          map[string]metric
	perLayer          map[string]metric
	self              map[string]time.Duration
}

func newReport(name string, opt options) *report {
	return &report{workload: name, opt: opt, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) e2e(name string, v float64, n int) {
	unit, ok := endToEndUnits[name]
	if !ok {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	r.endToEnd[name] = metric{v, unit, n}
}

func (r *report) layer(name string, v float64, n int) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	r.perLayer[name] = metric{v, unit, n}
}

// traceSelf reports each layer's self time per traced op, over the spans
// of the ops' tracers, and writes those spans and the probes' spans.
func (r *report) traceSelf(ops int, ts []*tracer, probes ...*tracer) {
	r.self = selfTime(ts...)
	for _, l := range traceLayers {
		if ops > 0 {
			r.layer("trace.self_ms."+l, float64(r.self[l].Nanoseconds())/1e6/float64(ops), ops)
		}
	}
	path := filepath.Join(r.opt.dir, "trace", r.workload+".tsv")
	if err := writeSpans(path, append(ts, probes...)...); err != nil {
		r.fail("write spans: %v", err)
	}
}

// run executes one workload and returns its report.
func run(name string, opt options) (*report, error) {
	r := newReport(name, opt)
	steal := startSteal()
	switch name {
	case "leafspine_dcqcn":
		runSim(newLeafSpineDCQCN(opt.toy), opt, r)
	case "fattree_lp":
		r.lpWorkers = runtime.NumCPU()
		runSim(newFatTreeLP(opt.toy), opt, r)
	case "scale_flow":
		runSim(newScaleFlow(opt.toy), opt, r)
	case "serve_mix":
		if err := runServe(opt, r, nil); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	r.e2e("peak_rss_mb", peakRSSMB(), 1)
	if r.attempted > 0 {
		r.layer("error_rate", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	r.layer("run.steal_share", steal.share(), 1)
	for name, unit := range perLayerUnits {
		if _, ok := r.perLayer[name]; !ok {
			r.perLayer[name] = metric{0, unit, 0}
		}
	}
	return r, nil
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(w io.Writer, p provenance) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", r.workload, r.opt.seed, r.opt.seconds, r.opt.trace)
	fmt.Fprintf(w, "# provenance nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s seed=%d lp_workers=%d steal_share=%.4f\n",
		p.NProc, p.GOMAXPROCS, p.CPUModel, p.GoVersion, p.Revision, r.opt.seed, r.lpWorkers, r.perLayer["run.steal_share"].value)
	fmt.Fprintf(w, "# digest %s\n", r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	errRate := r.perLayer["error_rate"]
	fmt.Fprintf(w, "# attempted=%d failed=%d error_rate=%g\n", r.attempted, r.failed, errRate.value)
	chosen := r.endToEnd
	if r.opt.trace {
		chosen = r.perLayer
		for _, l := range sortedLayers(r.self) {
			fmt.Fprintf(w, "# self %-9s %12.3f ms total\n", l, float64(r.self[l].Nanoseconds())/1e6)
		}
	}
	names := make([]string, 0, len(chosen))
	for n := range chosen {
		names = append(names, n)
	}
	sort.Strings(names)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, n := range names {
		m := chosen[n]
		fmt.Fprintf(w, "%-28s %16.6g %-6s n=%d\n", n, m.value, m.unit, m.n)
		out.Metrics[n] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 28, "time budget of the measured ops")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	dir := fs.String("dir", ".bench_build/perfbench", "directory for run files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	r, err := run(*name, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout, readProvenance()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
