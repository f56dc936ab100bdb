package dshsim

import (
	"fmt"
	"io"
	"sort"
)

// This file is the experiment-family table: one ordered entry per figure
// or analysis of the evaluation (fig4, fig11, faults, …), read by every
// caller. An entry names the family, describes it in one line, says which
// optional inputs it takes, runs its harness under ExpOptions, and renders
// its rows as the text table dshbench prints. RunFamily returns the same
// typed rows the exported harness functions return, wrapped as `any`, so
// callers that only encode the result (the server, dshbench -json) need no
// per-family code, and WriteTable renders those very rows.
//
// Family results must stay JSON-encodable and deterministic for a fixed
// (family, Full, Seed, Fidelity, faults) tuple: the sweep service
// content-addresses them and serves cached bytes forever, so a family
// whose output depended on worker count or wall clock would poison the
// cache. Fig6 is the one harness whose natural result (a *metrics.CDF with
// unexported samples) does not marshal; its entry returns a Fig6Summary.

// Family is one experiment family of the evaluation.
type Family struct {
	// Name is the family's name on the command line and in specs.
	Name string
	// About is a one-line description.
	About string
	// TakesFaults says the family accepts a fault scenario that replaces
	// its built-in fault classes.
	TakesFaults bool
	// HasFidelity says the family honours ExpOptions.Fidelity.
	HasFidelity bool

	run   func(ExpOptions, *FaultScenario) any
	table func(w io.Writer, rows any)
}

// familyTable lists every family in the order `dshbench all` runs them.
var familyTable = []Family{
	{Name: "fig4", About: "Broadcom chip buffer/headroom trends (table)",
		run: rowsOf(Fig4), table: fig4Table},
	{Name: "theorem", About: "Theorem 1/2 burst-absorption bounds vs fluid model",
		run: rowsOf(Theorem), table: theoremTable},
	{Name: "fig10", About: "queue/threshold evolution of the burst-absorption analysis",
		run: rowsOf(Fig10), table: fig10Table},
	{Name: "fig11", About: "PFC avoidance: pause duration vs burst size (DSH vs SIH)",
		run: rowsOf(Fig11), table: fig11Table},
	{Name: "fig13", About: "collateral damage: innocent-flow goodput time series",
		run: rowsOf(Fig13), table: fig13Table},
	{Name: "fig6", About: "headroom utilization CDF at local maxima (SIH, DCQCN)",
		run: rowsOf(func(o ExpOptions) Fig6Summary { return Fig6(o).Summary() }), table: fig6Table},
	{Name: "fig5", About: "average FCT vs switch buffer size (SIH, PowerTCP, web search)",
		run: rowsOf(Fig5), table: fig5Table},
	{Name: "fig12", About: "deadlock avoidance: onset CDF over repeated runs",
		run: rowsOf(Fig12), table: fig12Table},
	{Name: "fig14", About: "FCT vs background load, DCQCN & PowerTCP (DSH/SIH normalized)",
		run: rowsOf(Fig14), table: fig14Table},
	{Name: "fig15", About: "FCT across workloads and topologies (DCQCN)",
		run: rowsOf(Fig15), table: fig15Table},
	{Name: "ablation", About: "design-choice ablations (insurance headroom, DT α, queue count)",
		run: rowsOf(Ablation), table: ablationTable},
	{Name: "faults", About: "fault injection: DSH vs SIH under flaps, pause storms, slow NICs, skew, loops",
		TakesFaults: true, run: func(o ExpOptions, sc *FaultScenario) any { return Faults(o, sc) }, table: faultsTable},
	{Name: "scale", About: "FCT distributions at 10⁴→10⁶ flows, DSH vs SIH (flow fidelity by default)",
		HasFidelity: true, run: rowsOf(Scale), table: scaleTable},
}

// rowsOf adapts a harness that takes no fault scenario to a table runner.
func rowsOf[T any](harness func(ExpOptions) T) func(ExpOptions, *FaultScenario) any {
	return func(o ExpOptions, _ *FaultScenario) any { return harness(o) }
}

// FamilyTable returns every family in run order.
func FamilyTable() []Family {
	return append([]Family(nil), familyTable...)
}

// LookupFamily returns the named family.
func LookupFamily(name string) (Family, bool) {
	for _, f := range familyTable {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Families returns the family names, sorted.
func Families() []string {
	names := make([]string, len(familyTable))
	for i, f := range familyTable {
		names[i] = f.Name
	}
	sort.Strings(names)
	return names
}

// RunFamily runs one experiment family under opt and returns its rows
// (the same values the exported harness functions return). faults, when
// non-nil, replaces the built-in fault classes of a family that takes
// them, and opt.Fidelity selects the granularity of a family that has
// that dimension; either is an error elsewhere — a knob silently ignored
// would alias two different specs onto one result.
func RunFamily(name string, opt ExpOptions, faults *FaultScenario) (any, error) {
	f, ok := LookupFamily(name)
	if !ok {
		return nil, fmt.Errorf("dshsim: unknown experiment family %q (have %v)", name, Families())
	}
	if faults != nil && !f.TakesFaults {
		return nil, fmt.Errorf("dshsim: family %q does not accept a fault scenario", name)
	}
	if opt.Fidelity != "" && !f.HasFidelity {
		return nil, fmt.Errorf("dshsim: family %q has no fidelity dimension", name)
	}
	return f.run(opt, faults), nil
}

// WriteTable renders rows, as returned by RunFamily for the named family,
// as that family's text table.
func WriteTable(w io.Writer, name string, rows any) error {
	f, ok := LookupFamily(name)
	if !ok {
		return fmt.Errorf("dshsim: unknown experiment family %q (have %v)", name, Families())
	}
	f.table(w, rows)
	return nil
}

// Fig6Quantile is one point of the headroom-utilization summary.
type Fig6Quantile struct {
	P           float64
	Utilization float64
}

// Fig6Summary is the JSON-encodable form of Fig6Result: the sample count
// and the utilization CDF evaluated on a fixed quantile grid.
type Fig6Summary struct {
	Samples   int
	Quantiles []Fig6Quantile
}

// fig6QuantileGrid is the fixed grid the summary reports.
var fig6QuantileGrid = []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1.0}

// Summary collapses the utilization CDF onto the fixed quantile grid.
func (r Fig6Result) Summary() Fig6Summary {
	s := Fig6Summary{Samples: r.Utilization.Len()}
	for _, p := range fig6QuantileGrid {
		s.Quantiles = append(s.Quantiles, Fig6Quantile{P: p, Utilization: r.Utilization.Quantile(p)})
	}
	return s
}
