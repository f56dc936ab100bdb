// Command dshbench regenerates every table and figure of the paper's
// evaluation. Each experiment family (dshsim.FamilyTable; `dshbench -h`
// lists them) prints the rows/series the corresponding figure plots, and
// `all` runs every family in table order.
//
// Usage:
//
//	dshbench [flags] <experiment>
//
// Flags:
//
//	-full      run at the paper's scale (much slower)
//	-seed N    workload seed (default 1)
//	-workers N sweep points run concurrently (default: all cores; results
//	           are identical for any value — see README "Running sweeps in
//	           parallel")
//	-lp-workers N  partition each simulation into logical processes and run
//	           them on N workers (0 = no LPs, the classic engine; results
//	           are identical for any N ≥ 1 — see DESIGN.md §8)
//	-fidelity F    simulation granularity of a family with that dimension:
//	           packet, flow, or hybrid — see DESIGN.md §11
//	-faults F  fault scenario JSON replacing a family's built-in fault
//	           classes
//	-quiet     suppress progress lines
//	-json      print the experiment's canonical result JSON (the dshserve
//	           result format) instead of tables
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile (taken at exit) to F
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dsh/dshsim"
	"dsh/dshsim/benchkit"
	"dsh/internal/serve"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's scale")
	seed := flag.Int64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent sweep points (0 = all cores)")
	lpWorkers := flag.Int("lp-workers", 0, "intra-run LP workers per simulation (0 = classic engine)")
	faultsSpec := flag.String("faults", "", "fault scenario JSON replacing the built-in fault classes (default: built-in classes)")
	fidelity := flag.String("fidelity", "", "simulation granularity where a family has that dimension: packet, flow, or hybrid")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	jsonOut := flag.Bool("json", false, "print the experiment's canonical result JSON (the dshserve result format) instead of tables")
	benchJSON := flag.String("bench-json", "", "run the perf kernel suite and write the JSON report to this path ('-' for stdout)")
	benchDiff := flag.Bool("bench-diff", false, "compare two bench reports: dshbench -bench-diff OLD.json NEW.json (exit 1 on regression)")
	benchTol := flag.Float64("bench-tolerance", 0.3, "relative ns/op slowdown tolerated by -bench-diff")
	benchStrict := flag.Bool("strict", false, "with -bench-diff: also fail on allocs/op, events/op, or heap budget violations in the new report")
	tracePath := flag.String("trace", "", "with the capture subcommand: write the .dshtrace packet trace to this path")
	version := flag.Bool("version", false, "print the build-info code version (the one baked into dshserve cache keys) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (at exit) to this path")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(serve.CodeVersion())
		return
	}
	for _, bad := range []struct {
		name string
		neg  bool
	}{
		{"-workers", *workers < 0},
		{"-lp-workers", *lpWorkers < 0},
		{"-seed", *seed < 0},
	} {
		if bad.neg {
			fmt.Fprintf(os.Stderr, "dshbench: %s must be non-negative\n\n", bad.name)
			usage()
			os.Exit(2)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench-diff: want exactly two report paths (old new)")
			os.Exit(2)
		}
		ok, err := runBenchDiff(flag.Arg(0), flag.Arg(1), *benchTol, *benchStrict)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		switch flag.Arg(0) {
		case "capture":
			if flag.NArg() != 2 || *tracePath == "" {
				fmt.Fprintln(os.Stderr, "capture: want dshbench -trace FILE capture <scenario>")
				fmt.Fprintf(os.Stderr, "scenarios: %s\n", strings.Join(dshsim.TraceScenarios(), ", "))
				os.Exit(2)
			}
			if err := runCapture(flag.Arg(1), *seed, *tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "capture: %v\n", err)
				os.Exit(1)
			}
			return
		case "replay":
			if flag.NArg() != 2 {
				fmt.Fprintln(os.Stderr, "replay: want dshbench replay <file.dshtrace>")
				os.Exit(2)
			}
			if err := runReplay(flag.Arg(1)); err != nil {
				fmt.Fprintf(os.Stderr, "replay: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	if *tracePath != "" {
		fmt.Fprintln(os.Stderr, "dshbench: -trace only applies to the capture subcommand")
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	name := flag.Arg(0)
	if *fidelity != "" && !dshsim.ValidFidelity(*fidelity) {
		fmt.Fprintf(os.Stderr, "dshbench: unknown fidelity %q (want packet, flow, or hybrid)\n\n", *fidelity)
		usage()
		os.Exit(2)
	}
	fams := dshsim.FamilyTable()
	if name != "all" {
		f, ok := dshsim.LookupFamily(name)
		var bad string
		switch {
		case !ok:
			bad = fmt.Sprintf("unknown experiment %q", name)
		case *faultsSpec != "" && !f.TakesFaults:
			bad = "-faults does not apply to " + name
		case *fidelity != "" && !f.HasFidelity:
			bad = "-fidelity does not apply to " + name
		}
		if bad != "" {
			fmt.Fprintf(os.Stderr, "dshbench: %s\n\n", bad)
			usage()
			os.Exit(2)
		}
		fams = []dshsim.Family{f}
	}
	if *jsonOut && name == "all" {
		fmt.Fprintln(os.Stderr, "dshbench: -json takes a single experiment family, not 'all'")
		os.Exit(2)
	}
	// Read and check the scenario before any family runs: a bad path or an
	// event the fabric cannot host must not surface only after hours of
	// other families under `all`.
	var scenario *dshsim.FaultScenario
	if *faultsSpec != "" {
		sc, err := dshsim.ParseFaultScenario(*faultsSpec)
		if err == nil {
			err = dshsim.ValidateFaults(dshsim.ExpOptions{Full: *full}, &sc)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: faults: %v\n", err)
			os.Exit(1)
		}
		scenario = &sc
	}

	opt := dshsim.ExpOptions{Full: *full, Seed: *seed, Workers: *workers, LPWorkers: *lpWorkers}
	if !*quiet {
		opt.Progress = func(p dshsim.SweepProgress) {
			fmt.Fprintf(os.Stderr, "# %s: %d/%d jobs done (%v elapsed, ~%v left) — %s\n",
				p.Experiment, p.Done, p.Total,
				p.Elapsed.Round(time.Millisecond), p.Remaining.Round(time.Millisecond), p.Job)
		}
		fmt.Fprintf(os.Stderr, "# workers: %d\n", dshsim.ResolveWorkers(*workers))
		if *lpWorkers > 0 {
			fmt.Fprintf(os.Stderr, "# lp-workers: %d\n", *lpWorkers)
		}
	}
	if *jsonOut {
		// The canonical JSON path is serve.Execute — the exact function the
		// dshserve workers run — so this output is byte-identical to the
		// server's /results body for the same spec.
		sp := serve.Spec{Family: name, Full: *full, Seed: *seed, Workers: *workers, LPWorkers: *lpWorkers,
			Fidelity: *fidelity, Faults: scenario}
		data, err := serve.Execute(sp, serve.CodeVersion(), opt.Progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	for _, f := range fams {
		fo, sc := opt, scenario
		if f.HasFidelity {
			fo.Fidelity = *fidelity
		}
		if !f.TakesFaults {
			sc = nil
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", f.Name)
		rows, err := dshsim.RunFamily(f.Name, fo, sc)
		if err == nil {
			err = dshsim.WriteTable(os.Stdout, f.Name, rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
}

// runBenchJSON runs the perf kernel suite (dshsim/benchkit) and writes the
// schema-stable report CI trends across PRs.
func runBenchJSON(path string) error {
	rep := benchkit.Collect()
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBenchDiff compares two bench reports and prints the table; it returns
// false when any kernel regressed beyond the tolerance or, with strict set,
// when the new report violates its own checked-in alloc/event/heap budgets
// or dropped a kernel the baseline still carries.
func runBenchDiff(oldPath, newPath string, tol float64, strict bool) (bool, error) {
	load := func(path string) (benchkit.Report, error) {
		f, err := os.Open(path)
		if err != nil {
			return benchkit.Report{}, err
		}
		defer f.Close()
		return benchkit.ReadReport(f)
	}
	oldR, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := load(newPath)
	if err != nil {
		return false, err
	}
	lines := benchkit.Diff(oldR, newR, tol)
	fmt.Printf("bench-diff %s → %s (tolerance %.0f%%)\n", oldPath, newPath, 100*tol)
	fmt.Print(benchkit.FormatDiff(oldR, newR, lines, tol))
	ok := len(benchkit.Regressions(lines)) == 0
	if strict {
		// Budgets travel inside the report, so strict mode re-validates the
		// new side: a report generated before a budget regression slipped in
		// would pass WriteJSON but must still fail the gate here.
		if err := newR.Validate(); err != nil {
			fmt.Printf("strict: new report violates budgets: %v\n", err)
			ok = false
		}
		// A kernel present in the baseline but gone from the candidate took
		// its budgets with it — a gate that silently stopped running. Strict
		// mode fails on that; removing a kernel requires refreshing the
		// committed baseline in the same change.
		for _, name := range benchkit.MissingFromNew(lines) {
			fmt.Printf("strict: kernel %s is in the baseline but missing from the candidate report — its budgets are no longer enforced\n", name)
			ok = false
		}
		// A single-core runner cannot measure parallel speedup, so the
		// ≥1.8x lp_speedup floor is not attached there. Passing silently
		// would look like the floor held; say out loud that it never ran.
		for _, note := range benchkit.UngatedNotes(newR) {
			fmt.Printf("strict: %s\n", note)
		}
	}
	return ok, nil
}

// runCapture records the named scenario as a packed .dshtrace file. The
// file is an io.WriteSeeker, so the header's frame count is patched in on
// close — readers of a complete capture can detect truncation exactly.
func runCapture(scenario string, seed int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	frames, err := dshsim.CaptureTrace(scenario, seed, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d frames of scenario %q (seed %d) to %s\n", frames, scenario, seed, path)
	return nil
}

// runReplay re-runs the scenario named in the trace header and verifies
// the live run reproduces the captured stream bit for bit.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := dshsim.ReplayTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("replayed scenario %q (seed %d): %d frames bit-identical\n", rep.Scenario, rep.Seed, rep.Frames)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `dshbench regenerates the DSH paper's evaluation figures.

usage: dshbench [-full] [-seed N] [-workers N] [-lp-workers N] [-quiet]
                [-faults spec.json] [-fidelity F] [-cpuprofile F] [-memprofile F] <experiment>
       dshbench -json <experiment>   print the canonical result JSON (the
                                     dshserve result format; byte-identical
                                     to the server's /results body)
       dshbench -bench-json <path>   run the perf kernels, write a JSON report
       dshbench -bench-diff [-bench-tolerance T] [-strict] <old.json> <new.json>
                                     compare two reports, exit 1 on ns/op
                                     regression (-strict also enforces the
                                     new report's alloc/event/heap/encode
                                     budgets)
       dshbench -trace F [-seed N] capture <scenario>
                                     record a packed .dshtrace of a named
                                     capture scenario (listed below)
       dshbench replay <file.dshtrace>
                                     re-run the captured scenario and verify
                                     every departure is bit-identical; exit 1
                                     with the first divergent frame otherwise
       dshbench -version             print the build-info code version

experiments:
`)
	for _, f := range dshsim.FamilyTable() {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", f.Name, f.About)
		if f.TakesFaults {
			fmt.Fprintln(os.Stderr, "           -faults F replaces the built-in fault classes")
		}
		if f.HasFidelity {
			fmt.Fprintln(os.Stderr, "           -fidelity selects packet, flow, or hybrid granularity")
		}
	}
	fmt.Fprintln(os.Stderr, "  all      everything above, in this order\n\ncapture scenarios:")
	for _, sc := range dshsim.TraceScenarios() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", sc, dshsim.TraceScenarioAbout(sc))
	}
}
