package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
)

// SchemaVersion identifies the report layout. Bump only on breaking field
// changes; ReadReport accepts this version only, and the trajectory of
// older reports is a table in EXPERIMENTS.md.
const SchemaVersion = "dsh-bench/v6"

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsProcessed is the simulator events executed per op (the kernel's
	// "events/op" metric); HeapMax is the event heap's high-water mark.
	// Zero means the kernel did not report the counter.
	EventsProcessed float64 `json:"events_processed"`
	HeapMax         float64 `json:"heap_max"`
	// AllocBudget is the checked-in allocation ceiling for this kernel
	// (allocBudgets); Validate fails the report when AllocsPerOp exceeds
	// it, which is the CI allocation-regression guard. EventBudget and
	// HeapMaxBudget guard the engine counters the same way.
	AllocBudget   *float64 `json:"alloc_budget,omitempty"`
	EventBudget   *float64 `json:"event_budget,omitempty"`
	HeapMaxBudget *float64 `json:"heap_max_budget,omitempty"`
	// LPWorkers is the intra-run LP worker count the kernel ran with (0 for
	// the classic single-heap engine). LPSpeedup, set on the parallel
	// kernel of a serial/parallel pair, is serial ns/op divided by this
	// kernel's ns/op. LPSpeedupBudget is the speedup floor Validate
	// enforces; collect() attaches it only on hosts with enough cores for
	// the comparison to be meaningful (speedupMinCPUs), so a single-core CI
	// runner records the ratio without gating on it.
	LPWorkers       int      `json:"lp_workers,omitempty"`
	LPSpeedup       *float64 `json:"lp_speedup,omitempty"`
	LPSpeedupBudget *float64 `json:"lp_speedup_budget,omitempty"`
	// LPOverheadRatio (v4) is the inverse view of LPSpeedup: parallel ns/op
	// over serial ns/op. On a single-core host — where lp_speedup can only
	// ever measure partitioning overhead, never parallel speedup — this is
	// the number actually worth trending; values near 1.0 mean the
	// partition tax is paid down.
	LPOverheadRatio *float64 `json:"lp_overhead_ratio,omitempty"`
	// Epochs (v4) is the partitioned engine's barrier-epoch count per op.
	// One epoch is one barrier rendezvous in the fused-phase engine (the
	// PR 5 engine paid two global barriers per epoch), so epochs/op is the
	// synchronization-cost trend line. LPBalance is the measured ratio of
	// the busiest LP's processed events to the per-LP mean — the load skew
	// the measured claim-order rebalancing works against.
	Epochs    float64 `json:"epochs,omitempty"`
	LPBalance float64 `json:"lp_balance,omitempty"`
	// Fidelity (v5) is the simulation granularity a scale kernel ran at
	// ("packet" or "flow"; empty for the non-fidelity kernels).
	// FidelitySpeedup, set on the flow kernel of the packet/flow pair, is
	// packet ns/op divided by flow ns/op — the fast-forwarding headline.
	// Unlike lp_speedup it compares two serial runs, so the
	// FidelitySpeedupBudget floor is enforced on any host, single-core
	// included.
	Fidelity              string   `json:"fidelity,omitempty"`
	FidelitySpeedup       *float64 `json:"fidelity_speedup,omitempty"`
	FidelitySpeedupBudget *float64 `json:"fidelity_speedup_budget,omitempty"`
	// FctP50/FctP99 (v5) are the kernel's FCT percentiles in microseconds
	// (the "fct_p50"/"fct_p99" metrics of the scale kernels); zero for
	// kernels that do not measure FCTs. FctErrP50/FctErrP99, set on the flow
	// kernel, are its signed relative percentile errors against the packet
	// twin; the budgets bound their magnitude (Validate enforces |err| ≤
	// budget), so an accuracy regression in the fluid model fails CI the
	// same way a perf regression would.
	FctP50          float64  `json:"fct_p50,omitempty"`
	FctP99          float64  `json:"fct_p99,omitempty"`
	FctErrP50       *float64 `json:"fct_err_p50,omitempty"`
	FctErrP99       *float64 `json:"fct_err_p99,omitempty"`
	FctErrP50Budget *float64 `json:"fct_err_p50_budget,omitempty"`
	FctErrP99Budget *float64 `json:"fct_err_p99_budget,omitempty"`
}

// allocBudgets are the checked-in allocs/op ceilings enforced by Validate.
// The steady-state kernels must stay allocation-free; the macro kernels'
// ceilings sit at 10% of their PR 2 measurements — comfortably above the
// PR 4 numbers (174 and 2883; EXPERIMENTS.md bench trajectory) so noise
// does not flake CI, while a real regression (a map, closure, or per-flow
// allocation creeping back onto the hot path) still fails.
var allocBudgets = map[string]float64{
	"EventEngine": 0,
	"Forwarding":  0,
	// The capture-enabled twin must match: packing a departure into the
	// trace writer's scratch buffer allocates nothing (the tentpole gate).
	"ForwardingTrace": 0,
	"Incast":          199,  // PR 2 baseline 1989; ≥10× cut enforced
	"Fig11":           6471, // PR 2 baseline 64712; ≥10× cut enforced
	"Fig11Point":      290,  // measured 260 (PR 5): one full-scale point
	"Fig11PointLP4":   1700, // measured 1498 (PR 5): 33 LP sims + mailbox storage
	// The fat-tree pair builds a 1024-host fabric and ~16k flows per op, so
	// the ceilings are per-op construction costs, not steady-state leaks.
	"FatTreePoint":    72_000,  // measured 65,331 (PR 8)
	"FatTreePointLP4": 115_000, // measured 103,888 (PR 8): +1024 LP sims + mailboxes
	// The packet kernel schedules ~10⁵ flows per op, so its ceiling is
	// dominated by per-flow transport state (~1.3 allocs per flow), not
	// steady-state leaks.
	"ScalePointPacket": 145_000, // measured 131,635 (PR 9)
	// The flow kernel's paths share one arena, the generators presize their
	// schedules and FCT records are reserved per tag, so an op is a few
	// hundred slice allocations: one allocation per flow or per recompute
	// (~16.5k per op) creeping back in fails this ceiling many times over.
	"ScalePointFlow": 675, // measured 614; 128,138 before the path arena
	// The fluid engine alone: its fixed per-Run slices plus amortized growth
	// of the heap and scratch lists, none per recompute event.
	"FlowsimRun": 54, // measured 49
}

// eventBudgets cap events processed per op. Event counts are deterministic
// for a fixed seed, so the ceilings sit only ~10% above the PR 4
// measurements: an extra event sneaking into the per-packet path is a real
// regression, not noise.
var eventBudgets = map[string]float64{
	"EventEngine":     1.1,        // exactly 1 dispatch per op
	"Forwarding":      8.8,        // measured 8.0 (PR 4)
	"ForwardingTrace": 8.8,        // identical to Forwarding: tracing adds no events
	"Incast":          6_500,      // measured 5,904 (PR 4)
	"Fig11":           6_100_000,  // measured 5,494,047 (PR 4)
	"Fig11Point":      680_000,    // measured 612,490 (PR 5)
	"Fig11PointLP4":   690_000,    // measured 616,772 (PR 5); ~0.7% over serial from mailbox re-inserts
	"FatTreePoint":    34_000_000, // measured 30,779,527 (PR 8)
	"FatTreePointLP4": 34_000_000, // measured 30,756,495 (PR 8)
	// The flow kernel's event count is the fast-forwarding claim in its
	// rawest form: ~2.4 recompute events per flow instead of ~2000 packet
	// events — the two ceilings differ by ~800×.
	"ScalePointPacket": 225_000_000, // measured 203,351,913 (PR 9)
	"ScalePointFlow":   270_000,     // measured 243,412 (PR 9)
	"FlowsimRun":       270_000,     // the same 243,412 engine events as ScalePointFlow
}

// heapMaxBudgets cap the event heap's high-water mark, the observable the
// sim.Channel conversion shrinks: with one resident event per link the heap
// scales with topology size, not packets in flight. Ceilings sit ~30% above
// the PR 4 measurements (heap growth is deterministic but shaped by DWRR
// interleaving, so a little more slack than the event budgets).
var heapMaxBudgets = map[string]float64{
	"EventEngine":     4,      // measured 1 (PR 4)
	"Forwarding":      10,     // measured 7 (PR 4)
	"ForwardingTrace": 10,     // identical to Forwarding: tracing adds no heap events
	"Incast":          48,     // measured 36 (PR 4); one-event-per-delivery held 333
	"Fig11":           96,     // measured 74 (PR 4); one-event-per-delivery held 445
	"Fig11Point":      96,     // measured 74 (PR 5): same topology as one Fig11 sweep point
	"Fig11PointLP4":   470,    // measured 358 (PR 5): cross-LP packets are heap events, not channel slots
	"FatTreePoint":    24_000, // measured 18,119 (PR 8): one heap for 1024 hosts
	"FatTreePointLP4": 22_000, // measured 16,517 (PR 8): summed across ~320 per-LP heaps
	// The flow engine has no Sim event heap at all (its completion heap
	// lives inside flowsim and is not Sim-accounted), so only the packet
	// kernel carries a heap ceiling — it scales with standing flows, not
	// topology, at this flow count.
	"ScalePointPacket": 150_000, // measured 113,527 (PR 9)
}

// Report is the schema-stable document emitted by `make bench-json` /
// `dshbench -bench-json`.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU records the host's core count (v3): the lp_speedup ratio of
	// the parallel kernels is meaningless without it — on a single-core
	// runner the partitioned engine can only ever show its overhead.
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// The serial/parallel kernel pairs collect() derives lp_speedup from, and
// the minimum host cores for the speedup floor to be enforced. The floor
// itself encodes the PR 5 acceptance target for the epoch-barrier engine:
// with 4 LP workers on a ≥4-core host, each pair's parallel kernel must
// run ≥1.8× faster than its classic serial twin.
const speedupMinCPUs = 4

var lpSpeedupFloor = 1.8

// lpPairs lists the serial/parallel kernel pairs, serial kernel first.
var lpPairs = [][2]string{
	{"Fig11Point", "Fig11PointLP4"},
	{"FatTreePoint", "FatTreePointLP4"},
}

// fidelityPairs lists the packet/flow kernel pairs (packet first) that
// deriveFidelity annotates; the floor is the PR 9 acceptance target: the
// flow-level fast-forwarder must run the 10⁵-flow scale point at least
// 50× faster than the packet engine (measured ~214×). Both kernels are
// serial, so the floor holds on any host and is always enforced.
var fidelityPairs = [][2]string{
	{"ScalePointPacket", "ScalePointFlow"},
}

var fidelitySpeedupFloor = 50.0

// fctErrP50Budget / fctErrP99Budget bound the flow kernel's FCT-percentile
// error magnitude against its packet twin — the documented flow-fidelity
// accuracy budgets (DESIGN.md §11). The fluid model is a lower-bound-ish
// approximation (it skips per-packet serialization jitter), so the tail
// budget is looser than the median one.
var (
	fctErrP50Budget = 0.25
	fctErrP99Budget = 0.50
)

// kernel names a benchmark function for programmatic collection.
type kernel struct {
	name string
	fn   func(*testing.B)
}

// defaultKernels is the suite behind Collect, slowest last. The serial and
// LP-parallel kernels of each pair are adjacent so the derived lp_speedup
// compares measurements taken under the same machine conditions.
func defaultKernels() []kernel {
	return []kernel{
		{"EventEngine", EventEngine},
		{"Forwarding", Forwarding},
		{"ForwardingTrace", ForwardingTrace},
		{"Incast", Incast},
		{"Fig11Point", Fig11Point},
		{"Fig11PointLP4", Fig11PointLP4},
		{"Fig11", Fig11},
		{"FatTreePoint", FatTreePoint},
		{"FatTreePointLP4", FatTreePointLP4},
		{"FlowsimRun", FlowsimRun},
		{"ScalePointFlow", ScalePointFlow},
		{"ScalePointPacket", ScalePointPacket},
	}
}

// Collect runs the standard kernel suite through testing.Benchmark and
// returns the report.
func Collect() Report { return collect(defaultKernels()) }

func collect(kernels []kernel) Report {
	rep := Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, k := range kernels {
		r := testing.Benchmark(k.fn)
		br := BenchResult{
			Name:            k.name,
			Iterations:      r.N,
			NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:     float64(r.AllocsPerOp()),
			BytesPerOp:      float64(r.AllocedBytesPerOp()),
			EventsProcessed: r.Extra["events/op"],
			HeapMax:         r.Extra["heap_max"],
			Epochs:          r.Extra["epochs"],
			LPBalance:       r.Extra["lp_balance"],
			FctP50:          r.Extra["fct_p50"],
			FctP99:          r.Extra["fct_p99"],
		}
		if budget, ok := allocBudgets[k.name]; ok {
			br.AllocBudget = &budget
		}
		if budget, ok := eventBudgets[k.name]; ok {
			br.EventBudget = &budget
		}
		if budget, ok := heapMaxBudgets[k.name]; ok {
			br.HeapMaxBudget = &budget
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	deriveSpeedup(&rep)
	deriveFidelity(&rep)
	return rep
}

// deriveSpeedup annotates the parallel kernel of each serial/parallel pair
// with lp_workers, lp_speedup (serial ns/op ÷ parallel ns/op), and
// lp_overhead_ratio (the inverse). The speedup floor is attached — and thus
// enforced by Validate — only when the host has at least speedupMinCPUs
// cores; with fewer, both ratios are recorded for the trend line but
// measure only the partitioning overhead.
func deriveSpeedup(rep *Report) {
	byName := make(map[string]*BenchResult, len(rep.Benchmarks))
	for i := range rep.Benchmarks {
		byName[rep.Benchmarks[i].Name] = &rep.Benchmarks[i]
	}
	for _, pair := range lpPairs {
		serial, par := byName[pair[0]], byName[pair[1]]
		if serial == nil || par == nil || serial.NsPerOp <= 0 || par.NsPerOp <= 0 {
			continue
		}
		par.LPWorkers = 4
		sp := serial.NsPerOp / par.NsPerOp
		par.LPSpeedup = &sp
		ov := par.NsPerOp / serial.NsPerOp
		par.LPOverheadRatio = &ov
		if rep.NumCPU >= speedupMinCPUs {
			floor := lpSpeedupFloor
			par.LPSpeedupBudget = &floor
		}
	}
}

// deriveFidelity annotates the flow kernel of each packet/flow pair with
// fidelity_speedup (packet ns/op ÷ flow ns/op), its always-enforced ≥50×
// floor, and the signed relative FCT-percentile errors with their accuracy
// budgets. Both kernels get their fidelity recorded.
func deriveFidelity(rep *Report) {
	byName := make(map[string]*BenchResult, len(rep.Benchmarks))
	for i := range rep.Benchmarks {
		byName[rep.Benchmarks[i].Name] = &rep.Benchmarks[i]
	}
	for _, pair := range fidelityPairs {
		packet, flow := byName[pair[0]], byName[pair[1]]
		if packet == nil || flow == nil || packet.NsPerOp <= 0 || flow.NsPerOp <= 0 {
			continue
		}
		packet.Fidelity, flow.Fidelity = "packet", "flow"
		sp := packet.NsPerOp / flow.NsPerOp
		flow.FidelitySpeedup = &sp
		floor := fidelitySpeedupFloor
		flow.FidelitySpeedupBudget = &floor
		if packet.FctP50 > 0 && packet.FctP99 > 0 {
			e50 := (flow.FctP50 - packet.FctP50) / packet.FctP50
			e99 := (flow.FctP99 - packet.FctP99) / packet.FctP99
			b50, b99 := fctErrP50Budget, fctErrP99Budget
			flow.FctErrP50, flow.FctErrP99 = &e50, &e99
			flow.FctErrP50Budget, flow.FctErrP99Budget = &b50, &b99
		}
	}
}

// UngatedNotes explains, for each LP kernel pair whose speedup floor was
// not attached, why the ≥lpSpeedupFloor gate is not being enforced —
// bench-diff -strict prints these so a single-core runner's pass is
// visibly "ungated", never silent.
func UngatedNotes(rep Report) []string {
	var notes []string
	for _, b := range rep.Benchmarks {
		if b.LPSpeedup == nil || b.LPSpeedupBudget != nil {
			continue
		}
		notes = append(notes, fmt.Sprintf(
			"%s lp_speedup %.2f ungated: num_cpu %d < %d — the ≥%.1fx floor needs a multi-core host and was NOT enforced",
			b.Name, *b.LPSpeedup, rep.NumCPU, speedupMinCPUs, lpSpeedupFloor))
	}
	return notes
}

// Validate checks the report against the schema contract; CI's bench-smoke
// job and the unit tests call it so a field rename cannot slip through.
func (r Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.GoVersion == "" || r.GOOS == "" || r.GOARCH == "" {
		return fmt.Errorf("missing toolchain metadata: %+v", r)
	}
	if r.NumCPU <= 0 {
		return fmt.Errorf("num_cpu %d: lp_speedup is uninterpretable without the host core count", r.NumCPU)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks in report")
	}
	for i, b := range r.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("benchmark %d has no name", i)
		}
		if b.Iterations <= 0 {
			return fmt.Errorf("benchmark %s: iterations %d", b.Name, b.Iterations)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %s: ns_per_op %v", b.Name, b.NsPerOp)
		}
		if b.AllocsPerOp < 0 || b.BytesPerOp < 0 {
			return fmt.Errorf("benchmark %s: negative alloc stats", b.Name)
		}
		if b.EventsProcessed < 0 || b.HeapMax < 0 {
			return fmt.Errorf("benchmark %s: negative engine counters", b.Name)
		}
		if b.AllocBudget != nil && b.AllocsPerOp > *b.AllocBudget {
			return fmt.Errorf("benchmark %s: %v allocs/op exceeds the checked-in budget of %v — a map, closure, or per-flow allocation crept back onto the hot path",
				b.Name, b.AllocsPerOp, *b.AllocBudget)
		}
		if b.EventBudget != nil && b.EventsProcessed > *b.EventBudget {
			return fmt.Errorf("benchmark %s: %v events/op exceeds the checked-in budget of %v — an extra event crept into the per-packet path",
				b.Name, b.EventsProcessed, *b.EventBudget)
		}
		if b.HeapMaxBudget != nil && b.HeapMax > *b.HeapMaxBudget {
			return fmt.Errorf("benchmark %s: heap high-water %v exceeds the checked-in budget of %v — something schedules per-packet events outside the delivery channels again",
				b.Name, b.HeapMax, *b.HeapMaxBudget)
		}
		if b.LPSpeedup != nil && *b.LPSpeedup <= 0 {
			return fmt.Errorf("benchmark %s: lp_speedup %v is not positive", b.Name, *b.LPSpeedup)
		}
		if b.LPOverheadRatio != nil && *b.LPOverheadRatio <= 0 {
			return fmt.Errorf("benchmark %s: lp_overhead_ratio %v is not positive", b.Name, *b.LPOverheadRatio)
		}
		if b.Epochs < 0 || b.LPBalance < 0 {
			return fmt.Errorf("benchmark %s: negative partitioned-engine counters", b.Name)
		}
		if b.LPSpeedupBudget != nil {
			if b.LPSpeedup == nil {
				return fmt.Errorf("benchmark %s: lp_speedup_budget set without lp_speedup", b.Name)
			}
			if *b.LPSpeedup < *b.LPSpeedupBudget {
				return fmt.Errorf("benchmark %s: lp_speedup %.2f below the %.2f floor — the epoch-barrier engine stopped scaling (check the phase barrier and LP claim order)",
					b.Name, *b.LPSpeedup, *b.LPSpeedupBudget)
			}
		}
		if b.FidelitySpeedupBudget != nil {
			if b.FidelitySpeedup == nil {
				return fmt.Errorf("benchmark %s: fidelity_speedup_budget set without fidelity_speedup", b.Name)
			}
			if *b.FidelitySpeedup < *b.FidelitySpeedupBudget {
				return fmt.Errorf("benchmark %s: fidelity_speedup %.1f below the %.0fx floor — the flow-level fast-forwarder stopped fast-forwarding (per-flow work crept into the recompute path?)",
					b.Name, *b.FidelitySpeedup, *b.FidelitySpeedupBudget)
			}
		}
		if b.FctErrP50Budget != nil {
			if b.FctErrP50 == nil {
				return fmt.Errorf("benchmark %s: fct_err_p50_budget set without fct_err_p50", b.Name)
			}
			if math.Abs(*b.FctErrP50) > *b.FctErrP50Budget {
				return fmt.Errorf("benchmark %s: |fct_err_p50| %.3f exceeds the %.2f accuracy budget — the fluid model drifted from the packet engine",
					b.Name, *b.FctErrP50, *b.FctErrP50Budget)
			}
		}
		if b.FctErrP99Budget != nil {
			if b.FctErrP99 == nil {
				return fmt.Errorf("benchmark %s: fct_err_p99_budget set without fct_err_p99", b.Name)
			}
			if math.Abs(*b.FctErrP99) > *b.FctErrP99Budget {
				return fmt.Errorf("benchmark %s: |fct_err_p99| %.3f exceeds the %.2f accuracy budget — the fluid model's tail drifted from the packet engine",
					b.Name, *b.FctErrP99, *b.FctErrP99Budget)
			}
		}
	}
	return nil
}

// WriteJSON validates and writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes a report for comparison. It accepts the current schema
// only: the committed baselines are all v6, and older trajectory points
// live as a table in EXPERIMENTS.md.
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("benchkit: parsing report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return Report{}, fmt.Errorf("benchkit: unsupported schema %q, want %q", r.Schema, SchemaVersion)
	}
	if len(r.Benchmarks) == 0 {
		return Report{}, fmt.Errorf("benchkit: report has no benchmarks")
	}
	return r, nil
}
