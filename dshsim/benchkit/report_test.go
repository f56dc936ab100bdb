package benchkit

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// fastKernel is a trivial benchmark body so the emitter tests stay cheap.
func fastKernel(b *testing.B) {
	var x int
	for i := 0; i < b.N; i++ {
		x += i
	}
	_ = x
}

func TestCollectProducesValidReport(t *testing.T) {
	rep := collect([]kernel{{"Fast", fastKernel}})
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.Benchmarks[0].Name != "Fast" || rep.Benchmarks[0].Iterations <= 0 {
		t.Fatalf("bad result: %+v", rep.Benchmarks[0])
	}
}

// TestReportJSONSchemaIsStable pins the exact field names of the wire
// format: tooling diffs BENCH_PR<n>.json across PRs, so a rename is a
// breaking change that must bump SchemaVersion.
func TestReportJSONSchemaIsStable(t *testing.T) {
	rep := collect([]kernel{{"Fast", fastKernel}})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	for _, key := range []string{"schema", "go_version", "goos", "goarch", "benchmarks"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("top-level key %q missing from %s", key, buf.String())
		}
	}
	bench := doc["benchmarks"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "iterations", "ns_per_op", "allocs_per_op", "bytes_per_op"} {
		if _, ok := bench[key]; !ok {
			t.Errorf("benchmark key %q missing from %s", key, buf.String())
		}
	}
	if doc["schema"] != SchemaVersion {
		t.Errorf("schema = %v, want %v", doc["schema"], SchemaVersion)
	}
}

func TestValidateRejectsBrokenReports(t *testing.T) {
	good := collect([]kernel{{"Fast", fastKernel}})
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "dsh-bench/v0" }},
		{"no benchmarks", func(r *Report) { r.Benchmarks = nil }},
		{"unnamed benchmark", func(r *Report) { r.Benchmarks[0].Name = "" }},
		{"zero iterations", func(r *Report) { r.Benchmarks[0].Iterations = 0 }},
		{"missing toolchain", func(r *Report) { r.GoVersion = "" }},
		{"over alloc budget", func(r *Report) {
			budget := 10.0
			r.Benchmarks[0].AllocBudget = &budget
			r.Benchmarks[0].AllocsPerOp = 11
		}},
	}
	for _, c := range cases {
		r := good
		r.Benchmarks = append([]BenchResult(nil), good.Benchmarks...)
		c.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken report", c.name)
		}
	}
}

// Every kernel of the default suite must carry a checked-in alloc budget:
// the CI bench-json step calls WriteJSON → Validate, so an unguarded kernel
// would make allocation regressions invisible.
func TestDefaultKernelsHaveAllocBudgets(t *testing.T) {
	for _, k := range defaultKernels() {
		if _, ok := allocBudgets[k.name]; !ok {
			t.Errorf("kernel %s has no checked-in alloc budget", k.name)
		}
	}
}

func TestValidateAcceptsAtBudget(t *testing.T) {
	r := collect([]kernel{{"Fast", fastKernel}})
	budget := r.Benchmarks[0].AllocsPerOp
	r.Benchmarks[0].AllocBudget = &budget
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate rejected an at-budget report: %v", err)
	}
}

// TestDeriveSpeedupAndFloor pins the v3 lp_speedup contract: the ratio is
// derived for the serial/parallel kernel pair, and the ≥1.8× floor is
// attached (hence enforced) only on hosts with enough cores for the
// comparison to mean anything.
func TestDeriveSpeedupAndFloor(t *testing.T) {
	rep := Report{
		Schema: SchemaVersion, GoVersion: "go", GOOS: "linux", GOARCH: "amd64",
		NumCPU: 8,
		Benchmarks: []BenchResult{
			{Name: "Fig11Point", Iterations: 1, NsPerOp: 100},
			{Name: "Fig11PointLP4", Iterations: 1, NsPerOp: 50},
		},
	}
	deriveSpeedup(&rep)
	par := rep.Benchmarks[1]
	if par.LPWorkers != 4 || par.LPSpeedup == nil || *par.LPSpeedup != 2.0 {
		t.Fatalf("speedup not derived: %+v", par)
	}
	if par.LPOverheadRatio == nil || *par.LPOverheadRatio != 0.5 {
		t.Fatalf("overhead ratio not derived: %+v", par)
	}
	if par.LPSpeedupBudget == nil || *par.LPSpeedupBudget != lpSpeedupFloor {
		t.Fatalf("floor not attached on an 8-core report: %+v", par)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("2.0x on an 8-core host must validate: %v", err)
	}

	// A parallel kernel slower than 1.8x serial fails on a multi-core host.
	rep.Benchmarks[1].NsPerOp = 90
	deriveSpeedup(&rep)
	if err := rep.Validate(); err == nil {
		t.Fatal("Validate accepted a below-floor speedup on an 8-core host")
	}

	// A single-core host records the ratio but never gates on it.
	rep.NumCPU = 1
	rep.Benchmarks[1].LPSpeedup, rep.Benchmarks[1].LPSpeedupBudget = nil, nil
	deriveSpeedup(&rep)
	if rep.Benchmarks[1].LPSpeedup == nil {
		t.Fatal("single-core report lost the recorded ratio")
	}
	if rep.Benchmarks[1].LPSpeedupBudget != nil {
		t.Fatal("floor attached on a single-core report")
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("single-core sub-floor ratio must still validate: %v", err)
	}
}

// TestDeriveSpeedupCoversAllPairs pins that every serial/parallel pair —
// not just the original Fig. 11 one — gets its ratios derived.
func TestDeriveSpeedupCoversAllPairs(t *testing.T) {
	rep := Report{
		Schema: SchemaVersion, GoVersion: "go", GOOS: "linux", GOARCH: "amd64",
		NumCPU: 1,
	}
	for _, pair := range lpPairs {
		rep.Benchmarks = append(rep.Benchmarks,
			BenchResult{Name: pair[0], Iterations: 1, NsPerOp: 100},
			BenchResult{Name: pair[1], Iterations: 1, NsPerOp: 80})
	}
	deriveSpeedup(&rep)
	for i, b := range rep.Benchmarks {
		if i%2 == 0 {
			continue
		}
		if b.LPSpeedup == nil || b.LPOverheadRatio == nil {
			t.Errorf("pair kernel %s missing derived ratios: %+v", b.Name, b)
		}
	}
}

// TestUngatedNotes pins the strict-mode transparency contract: a report
// whose speedup floor could not be attached (single-core host) yields one
// explicit note per LP pair, and a gated report yields none.
func TestUngatedNotes(t *testing.T) {
	rep := Report{
		Schema: SchemaVersion, GoVersion: "go", GOOS: "linux", GOARCH: "amd64",
		NumCPU: 1,
		Benchmarks: []BenchResult{
			{Name: "Fig11Point", Iterations: 1, NsPerOp: 100},
			{Name: "Fig11PointLP4", Iterations: 1, NsPerOp: 125},
		},
	}
	deriveSpeedup(&rep)
	notes := UngatedNotes(rep)
	if len(notes) != 1 {
		t.Fatalf("want exactly one ungated note on a 1-CPU report, got %q", notes)
	}
	for _, want := range []string{"Fig11PointLP4", "num_cpu 1 < 4", "NOT enforced"} {
		if !strings.Contains(notes[0], want) {
			t.Errorf("note %q missing %q", notes[0], want)
		}
	}

	rep.NumCPU = 8
	rep.Benchmarks[1].LPSpeedup, rep.Benchmarks[1].LPSpeedupBudget = nil, nil
	rep.Benchmarks[1].NsPerOp = 50
	deriveSpeedup(&rep)
	if notes := UngatedNotes(rep); len(notes) != 0 {
		t.Fatalf("gated multi-core report must have no ungated notes, got %q", notes)
	}
}

// TestReadReportAcceptsCurrentSchemaOnly pins that bench-diff reads the
// one schema the committed baselines use and rejects the retired ones.
func TestReadReportAcceptsCurrentSchemaOnly(t *testing.T) {
	doc := func(schema string) string {
		return `{"schema":"` + schema + `","go_version":"go","goos":"linux","goarch":"amd64",` +
			`"num_cpu":1,"benchmarks":[{"name":"Fast","iterations":1,"ns_per_op":1}]}`
	}
	r, err := ReadReport(strings.NewReader(doc(SchemaVersion)))
	if err != nil {
		t.Fatalf("ReadReport rejected a %s report: %v", SchemaVersion, err)
	}
	if r.Benchmarks[0].Name != "Fast" {
		t.Fatalf("bad decode: %+v", r)
	}
	if _, err := ReadReport(strings.NewReader(doc("dsh-bench/v5"))); err == nil {
		t.Fatal("ReadReport accepted a retired dsh-bench/v5 report")
	}
}

// ciBaseline is the committed report CI's bench-smoke leg diffs against.
const ciBaseline = "../../BENCH_PR20.json"

// TestCIBaselineKernelsExist fails when the committed CI baseline names a
// kernel the suite no longer runs: bench-diff -strict would reject every
// candidate report for the missing kernel, so deleting a kernel must
// refresh the baseline in the same change.
func TestCIBaselineKernelsExist(t *testing.T) {
	f, err := os.Open(ciBaseline)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := ReadReport(f)
	if err != nil {
		t.Fatalf("%s: %v", ciBaseline, err)
	}
	suite := make(map[string]bool)
	for _, k := range defaultKernels() {
		suite[k.name] = true
	}
	for _, b := range base.Benchmarks {
		if !suite[b.Name] {
			t.Errorf("%s names kernel %s, which defaultKernels no longer runs — refresh the baseline", ciBaseline, b.Name)
		}
	}
}

// TestDeriveFidelity pins the v5 contract for the packet/flow kernel pair:
// the speedup ratio and its ≥50× floor are attached regardless of core
// count (two serial runs), the FCT-error fields carry their accuracy
// budgets, and Validate enforces both directions.
func TestDeriveFidelity(t *testing.T) {
	rep := Report{
		Schema: SchemaVersion, GoVersion: "go", GOOS: "linux", GOARCH: "amd64",
		NumCPU: 1, // single-core: the fidelity floor must attach anyway
		Benchmarks: []BenchResult{
			{Name: "ScalePointPacket", Iterations: 1, NsPerOp: 60_000, FctP50: 100, FctP99: 500},
			{Name: "ScalePointFlow", Iterations: 1, NsPerOp: 600, FctP50: 90, FctP99: 400},
		},
	}
	deriveFidelity(&rep)
	packet, flow := rep.Benchmarks[0], rep.Benchmarks[1]
	if packet.Fidelity != "packet" || flow.Fidelity != "flow" {
		t.Fatalf("fidelities not recorded: %q / %q", packet.Fidelity, flow.Fidelity)
	}
	if flow.FidelitySpeedup == nil || *flow.FidelitySpeedup != 100 {
		t.Fatalf("speedup not derived: %+v", flow)
	}
	if flow.FidelitySpeedupBudget == nil || *flow.FidelitySpeedupBudget != fidelitySpeedupFloor {
		t.Fatal("fidelity speedup floor not attached on a single-core report")
	}
	if flow.FctErrP50 == nil || *flow.FctErrP50 != -0.1 {
		t.Fatalf("fct_err_p50 not derived: %+v", flow.FctErrP50)
	}
	if flow.FctErrP99 == nil || *flow.FctErrP99 != -0.2 {
		t.Fatalf("fct_err_p99 not derived: %+v", flow.FctErrP99)
	}
	if flow.FctErrP50Budget == nil || flow.FctErrP99Budget == nil {
		t.Fatal("accuracy budgets not attached")
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("in-budget fidelity pair must validate: %v", err)
	}

	// Below the speedup floor → fail.
	slow := rep
	slow.Benchmarks = append([]BenchResult(nil), rep.Benchmarks...)
	slow.Benchmarks[1].NsPerOp = 30_000
	slow.Benchmarks[1].FidelitySpeedup, slow.Benchmarks[1].FidelitySpeedupBudget = nil, nil
	deriveFidelity(&slow)
	if err := slow.Validate(); err == nil {
		t.Fatal("Validate accepted a 2x fidelity speedup against the 50x floor")
	}

	// Outside an accuracy budget → fail (error magnitude, either sign).
	for _, mut := range []func(*BenchResult){
		func(b *BenchResult) { e := 0.9; b.FctErrP50 = &e },
		func(b *BenchResult) { e := -0.9; b.FctErrP99 = &e },
	} {
		bad := rep
		bad.Benchmarks = append([]BenchResult(nil), rep.Benchmarks...)
		mut(&bad.Benchmarks[1])
		if err := bad.Validate(); err == nil {
			t.Fatal("Validate accepted an out-of-budget FCT error")
		}
	}
}
