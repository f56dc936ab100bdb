package dshsim

import (
	"math/rand"
	"reflect"
	"testing"

	"dsh/units"
)

// tinyFaultOpts shrinks the faults family for test runtime; the sweep
// executor stays serial so the only varying axis is what the test varies.
func tinyFaultOpts(seed int64, lpWorkers int) ExpOptions {
	return ExpOptions{
		Seed: seed, Workers: 1, LPWorkers: lpWorkers,
		testFabric: &fabricParams{
			leaves: 2, spines: 2, hostsPerLeaf: 2,
			rate: 100 * units.Gbps, duration: units.Millisecond, fanIn: 2,
		},
	}
}

// TestFaultsFamilyDeterministic pins the acceptance bar for the new family:
// repeated runs are bit-identical, and so are LPWorkers 1 vs 4 (fault ops
// live on the coordinator, so the partitioned total order is unchanged by
// the worker count).
func TestFaultsFamilyDeterministic(t *testing.T) {
	a := Faults(tinyFaultOpts(9, 1), nil)
	b := Faults(tinyFaultOpts(9, 1), nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("faults family not reproducible:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	c := Faults(tinyFaultOpts(9, 4), nil)
	if !reflect.DeepEqual(a, c) {
		t.Errorf("faults rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v", a, c)
	}
	// Every fault class actually ran under both schemes.
	if len(a) != 2*len(faultClasses()) {
		t.Fatalf("got %d rows, want %d", len(a), 2*len(faultClasses()))
	}
	// DSH stays lossless under every fault class. (SIH does not on this
	// fabric; see ROADMAP "Check the system against the paper".)
	for _, r := range a {
		if r.Scheme == DSH && r.Drops != 0 {
			t.Errorf("%s/DSH dropped %d packets; DSH must stay lossless", r.Fault, r.Drops)
		}
	}
	// The faulted rows must differ from the clean baseline somewhere —
	// injection that changes nothing is a wiring bug.
	base := map[Scheme]FaultsRow{a[0].Scheme: a[0], a[1].Scheme: a[1]}
	changed := false
	for _, r := range a[2:] {
		if !reflect.DeepEqual(r.Stats, FaultStats{}) && r != base[r.Scheme] {
			changed = true
		}
	}
	if !changed {
		t.Error("no faulted row differs from the clean baseline")
	}
}

// TestFaultsWithSpec drives Faults with a caller-supplied scenario (what
// dshbench -faults passes) holding a flap on the benchmark fabric: the
// scenario replaces the built-in classes, one row per scheme.
func TestFaultsWithSpec(t *testing.T) {
	opt := tinyFaultOpts(3, 1)
	fp := *opt.testFabric
	// Node IDs on the 2×2×2 fabric: hosts 0..3, leaves 4..5, spines 6..7.
	sc := &FaultScenario{Name: "spec", Events: []FaultEvent{{
		Kind: FaultLinkFlap, At: fp.duration / 8, Duration: fp.duration / 4,
		Node: 4, Port: fp.hostsPerLeaf,
	}}}
	rows := Faults(opt, sc)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Fault != "spec" {
			t.Errorf("%s: Fault = %q, want the scenario name", r.Scheme, r.Fault)
		}
		if r.Stats.Flaps != 1 {
			t.Errorf("%s: Flaps = %d, want 1", r.Scheme, r.Stats.Flaps)
		}
	}
}

// TestDeadlockDetectorCyclic pins the detector's true-positive side: the
// Fig. 12a topology (failed links force 1-bounce paths with a cyclic buffer
// dependency) under SIH/DCQCN deadlocks — the paper's 10-for-10 case.
func TestDeadlockDetectorCyclic(t *testing.T) {
	seed := deriveSeed(1, "fig12", 0, 0)
	onset := fig12Run(SIH, TransportDCQCN, 4, 100*units.Gbps, 10*units.Millisecond, seed, 0)
	if onset < 0 {
		t.Error("cyclic Fig. 12a topology under SIH/DCQCN did not trip the deadlock detector")
	}
}

// TestDeadlockDetectorAcyclicNoFalsePositive pins the false-positive side:
// a fat-tree's up-down ECMP routing has no cyclic buffer dependency, so
// heavy incast may pause half the fabric but must never confirm a deadlock.
func TestDeadlockDetectorAcyclicNoFalsePositive(t *testing.T) {
	const (
		rate     = 100 * units.Gbps
		duration = 2 * units.Millisecond
	)
	nc := NetworkConfig{Scheme: SIH, Transport: TransportNone,
		BufferPerCapacity: 40 * units.Microsecond, Seed: 5}
	ft := NewFatTree(nc, 4, rate)
	rng := rand.New(rand.NewSource(5))
	// 12-way incast into one host plus background keeps PFC firing.
	var specs []FlowSpec
	id := 1
	dst := ft.PodHosts[0][0]
	for p := 1; p < 4; p++ {
		for _, src := range ft.PodHosts[p] {
			specs = append(specs, FlowSpec{ID: id, Src: src, Dst: dst,
				Size: 256 * units.KB, Start: units.Time(rng.Int63n(int64(units.Microsecond))),
				Class: 0, Tag: "incast"})
			id++
		}
	}
	res := Run(ft.Network, RunConfig{Specs: specs, Duration: duration, Drain: true,
		DetectDeadlock: true, DeadlockInterval: 50 * units.Microsecond})
	if res.Deadlocked {
		t.Errorf("acyclic fat-tree incast confirmed a deadlock at %v (false positive)", res.DeadlockOnset)
	}
	if res.PauseFrames == 0 {
		t.Error("incast produced no PFC pressure; false-positive test is vacuous")
	}
}

// TestFaultsNilBitIdentical pins the zero-cost guarantee: attaching no
// scenario must leave a run bit-identical to one on a build that predates
// the fault layer — same FCTs, same counters, zero wire drops.
func TestFaultsNilBitIdentical(t *testing.T) {
	run := func(withField bool) *Result {
		nc := NetworkConfig{Scheme: DSH, Transport: TransportDCQCN,
			BufferPerCapacity: 40 * units.Microsecond, Seed: 7}
		if withField {
			nc.Faults = nil // explicit, for the reader: nil is the default
		}
		ls := NewLeafSpine(nc, 2, 2, 2, 100*units.Gbps, 100*units.Gbps)
		var specs []FlowSpec
		for i, src := range ls.LeafHosts[0] {
			specs = append(specs, FlowSpec{ID: i + 1, Src: src, Dst: ls.LeafHosts[1][i],
				Size: 128 * units.KB, Start: 0, Class: 0, Tag: "x"})
		}
		return Run(ls.Network, RunConfig{Specs: specs, Duration: units.Millisecond, Drain: true})
	}
	a, b := run(false), run(true)
	if a.FCT.Avg("x") != b.FCT.Avg("x") || a.Events != b.Events || a.PauseFrames != b.PauseFrames {
		t.Errorf("Faults:nil changed the run: %+v vs %+v", a, b)
	}
	if a.WireDrops != 0 || !reflect.DeepEqual(a.Faults, FaultStats{}) {
		t.Errorf("clean run reports fault activity: wiredrops %d stats %+v", a.WireDrops, a.Faults)
	}
}
