package benchkit

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// DiffLine is one kernel's before/after comparison.
type DiffLine struct {
	Name  string
	OldNs float64
	NewNs float64
	// Delta is the relative ns/op change: (new-old)/old.
	Delta      float64
	Regression bool
	// MissingIn names the report the kernel is absent from ("" when present
	// in both). Missing kernels never count as ns/op regressions; a kernel
	// missing from the *new* report (a silently dropped gate) fails
	// bench-diff -strict via MissingFromNew.
	MissingIn string
}

// Diff compares two reports kernel by kernel. A kernel regresses when its
// new ns/op exceeds old*(1+tol); tol absorbs scheduler and machine noise
// (the CI soft gate uses a generous 0.5, local bench-diff defaults to 0.3).
// Engine counters and allocations are not tolerance-checked here — they are
// deterministic and already budget-enforced by Validate.
func Diff(oldR, newR Report, tol float64) []DiffLine {
	oldBy := make(map[string]BenchResult, len(oldR.Benchmarks))
	for _, b := range oldR.Benchmarks {
		oldBy[b.Name] = b
	}
	var lines []DiffLine
	seen := make(map[string]bool, len(newR.Benchmarks))
	for _, nb := range newR.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			lines = append(lines, DiffLine{Name: nb.Name, NewNs: nb.NsPerOp, MissingIn: "old"})
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		lines = append(lines, DiffLine{
			Name:       nb.Name,
			OldNs:      ob.NsPerOp,
			NewNs:      nb.NsPerOp,
			Delta:      delta,
			Regression: delta > tol,
		})
	}
	for _, ob := range oldR.Benchmarks {
		if !seen[ob.Name] {
			lines = append(lines, DiffLine{Name: ob.Name, OldNs: ob.NsPerOp, MissingIn: "new"})
		}
	}
	return lines
}

// MissingFromNew returns the kernels present in the baseline but absent
// from the candidate report. A dropped kernel silently drops its budgets
// with it, so strict mode treats every name here as a failure — deleting a
// kernel must come with a baseline refresh, not slip through a diff.
func MissingFromNew(lines []DiffLine) []string {
	var names []string
	for _, l := range lines {
		if l.MissingIn == "new" {
			names = append(names, l.Name)
		}
	}
	return names
}

// Regressions filters a diff down to the failing lines.
func Regressions(lines []DiffLine) []DiffLine {
	var out []DiffLine
	for _, l := range lines {
		if l.Regression {
			out = append(out, l)
		}
	}
	return out
}

// FormatDiff renders a diff as an aligned table with a verdict footer.
func FormatDiff(oldR, newR Report, lines []DiffLine, tol float64) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "kernel\told ns/op\tnew ns/op\tdelta\tevents/op\theap_max\n")
	newBy := make(map[string]BenchResult, len(newR.Benchmarks))
	for _, b := range newR.Benchmarks {
		newBy[b.Name] = b
	}
	for _, l := range lines {
		if l.MissingIn != "" {
			fmt.Fprintf(w, "%s\t-\t-\t(only in %s report)\t\t\n", l.Name, map[string]string{"old": "new", "new": "old"}[l.MissingIn])
			continue
		}
		mark := ""
		if l.Regression {
			mark = "  REGRESSION"
		}
		nb := newBy[l.Name]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%+.1f%%%s\t%.1f\t%.0f\n",
			l.Name, l.OldNs, l.NewNs, 100*l.Delta, mark, nb.EventsProcessed, nb.HeapMax)
	}
	w.Flush()
	if n := len(Regressions(lines)); n > 0 {
		fmt.Fprintf(&sb, "FAIL: %d kernel(s) regressed beyond %.0f%% tolerance\n", n, 100*tol)
	} else {
		fmt.Fprintf(&sb, "ok: no kernel regressed beyond %.0f%% tolerance\n", 100*tol)
	}
	return sb.String()
}
