package dshsim

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// TestFamiliesMatchDshbench pins the family set every caller reads from
// the table (dshbench's usage and `all`, dshserve's /families): Families()
// stays sorted whatever the table order, and the two family facts sit on
// the one family each that had them before the table existed.
func TestFamiliesMatchDshbench(t *testing.T) {
	want := []string{"ablation", "faults", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig4", "fig5", "fig6", "scale", "theorem"}
	if got := Families(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	if got := len(FamilyTable()); got != len(want) {
		t.Fatalf("FamilyTable() has %d entries, want %d", got, len(want))
	}
	for _, name := range want {
		if f, ok := LookupFamily(name); !ok || f.Name != name {
			t.Errorf("LookupFamily(%q) = %q, %v", name, f.Name, ok)
		}
	}
	for _, name := range []string{"all", ""} {
		if _, ok := LookupFamily(name); ok {
			t.Errorf("LookupFamily accepted the non-family name %q", name)
		}
	}
	for _, f := range FamilyTable() {
		if f.About == "" {
			t.Errorf("%s: no description", f.Name)
		}
		if f.TakesFaults != (f.Name == "faults") || f.HasFidelity != (f.Name == "scale") {
			t.Errorf("%s: TakesFaults %v, HasFidelity %v", f.Name, f.TakesFaults, f.HasFidelity)
		}
	}
}

func TestRunFamilyUnknown(t *testing.T) {
	if _, err := RunFamily("fig99", ExpOptions{Seed: 1}, nil); err == nil {
		t.Fatal("RunFamily(fig99) succeeded, want error")
	}
}

// TestRunFamilyFaultsGating: a scenario is only meaningful for the faults
// family; everywhere else it must be rejected, not ignored (two specs that
// differ only in the scenario must not alias onto one result).
func TestRunFamilyFaultsGating(t *testing.T) {
	sc := &FaultScenario{Name: "t", Events: []FaultEvent{}}
	if _, err := RunFamily("fig4", ExpOptions{Seed: 1}, sc); err == nil {
		t.Fatal("RunFamily(fig4, scenario) succeeded, want error")
	}
}

// TestRunFamilyFidelityGating: like a scenario, a fidelity is rejected by
// a family without that dimension rather than ignored.
func TestRunFamilyFidelityGating(t *testing.T) {
	if _, err := RunFamily("fig4", ExpOptions{Seed: 1, Fidelity: FidelityFlow}, nil); err == nil {
		t.Fatal("RunFamily(fig4, fidelity flow) succeeded, want error")
	}
	if err := WriteTable(io.Discard, "fig99", nil); err == nil {
		t.Fatal("WriteTable(fig99) succeeded, want error")
	}
}

// TestRunFamilyFig4 exercises the registry end to end on the cheapest
// family and checks the result round-trips through JSON (the property the
// sweep service relies on for every family).
func TestRunFamilyFig4(t *testing.T) {
	v, err := RunFamily("fig4", ExpOptions{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := v.([]Fig4Row)
	if !ok || len(rows) == 0 {
		t.Fatalf("RunFamily(fig4) = %T with %v, want non-empty []Fig4Row", v, v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("fig4 rows do not marshal: %v", err)
	}
	var back []Fig4Row
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("fig4 rows do not round-trip: %v", err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Fatal("fig4 rows changed across a JSON round-trip")
	}
}

// TestFig6SummaryShape pins the quantile grid the cache key space depends
// on (changing the grid changes every cached fig6 result).
func TestFig6SummaryShape(t *testing.T) {
	res := Fig6Result{Utilization: NewCDF([]float64{0.1, 0.5, 0.9})}
	s := res.Summary()
	if s.Samples != 3 || len(s.Quantiles) != 6 {
		t.Fatalf("Summary() = %+v, want 3 samples over 6 grid points", s)
	}
	if s.Quantiles[len(s.Quantiles)-1].Utilization != 0.9 {
		t.Fatalf("p100 = %v, want 0.9", s.Quantiles[len(s.Quantiles)-1].Utilization)
	}
}
