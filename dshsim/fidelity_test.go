package dshsim

import (
	"math"
	"testing"

	"dsh/units"
)

// The documented fidelity error budgets (DESIGN.md §11), enforced here and
// recorded per PR by the benchkit fidelity kernels. Flow fidelity is a
// fluid approximation — it skips per-packet serialization jitter, so its
// percentiles sit below the packet engine's and the tail budget is loose.
// Hybrid re-simulates the contended flows with the real transport, so its
// budgets are tight.
const (
	flowErrP50Budget   = 0.25
	flowErrP99Budget   = 0.50
	hybridErrP50Budget = 0.10
	hybridErrP99Budget = 0.15
)

// fidelityRelErr is the signed relative error of got against the packet
// reference.
func fidelityRelErr(got, ref units.Time) float64 {
	return float64(got-ref) / float64(ref)
}

// TestFidelityErrorBudgets is the validation harness: one packet-fidelity
// reference run of a scale point, then the flow and hybrid runs of the
// identical schedule, each held to its documented p50/p99 FCT error
// budget. Everything is deterministic in the seed, so a budget breach is a
// model regression, never flake.
func TestFidelityErrorBudgets(t *testing.T) {
	const target, seed = 2000, 1
	ref, flows, _ := ScalePoint(DSH, FidelityPacket, target, seed, 0, nil)
	if ref.Completed == 0 || ref.Unfinished != 0 {
		t.Fatalf("packet reference did not complete: %+v", ref)
	}
	for _, tc := range []struct {
		fidelity   string
		p50b, p99b float64
	}{
		{FidelityFlow, flowErrP50Budget, flowErrP99Budget},
		{FidelityHybrid, hybridErrP50Budget, hybridErrP99Budget},
	} {
		st, n, _ := ScalePoint(DSH, tc.fidelity, target, seed, 0, nil)
		if n != flows {
			t.Fatalf("%s: scheduled %d flows, packet reference had %d", tc.fidelity, n, flows)
		}
		if st.Completed+st.Unfinished != ref.Completed {
			t.Errorf("%s: %d+%d flows accounted, want %d", tc.fidelity, st.Completed, st.Unfinished, ref.Completed)
		}
		e50 := fidelityRelErr(st.P50, ref.P50)
		e99 := fidelityRelErr(st.P99, ref.P99)
		t.Logf("%s: p50 %v vs %v (%+.1f%%), p99 %v vs %v (%+.1f%%)",
			tc.fidelity, st.P50, ref.P50, 100*e50, st.P99, ref.P99, 100*e99)
		if math.Abs(e50) > tc.p50b {
			t.Errorf("%s: |p50 error| %.3f exceeds the %.2f budget", tc.fidelity, e50, tc.p50b)
		}
		if math.Abs(e99) > tc.p99b {
			t.Errorf("%s: |p99 error| %.3f exceeds the %.2f budget", tc.fidelity, e99, tc.p99b)
		}
	}
}

// TestFidelityFlowDeterminism: the fluid engine must be exactly
// reproducible — same seed, same stats, down to the event count.
func TestFidelityFlowDeterminism(t *testing.T) {
	a, an, adur := ScalePoint(DSH, FidelityFlow, 1000, 3, 0, nil)
	b, bn, bdur := ScalePoint(DSH, FidelityFlow, 1000, 3, 0, nil)
	if a != b || an != bn || adur != bdur {
		t.Fatalf("flow fidelity is not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestFidelityHybridIndependentOfLPWorkers: LPWorkers selects engine
// internals for the packet sub-simulation; the hybrid result must be
// bit-identical across engine configurations — the equivalence the serve
// cache key relies on when it excludes lpWorkers.
func TestFidelityHybridIndependentOfLPWorkers(t *testing.T) {
	a, _, _ := ScalePoint(DSH, FidelityHybrid, 500, 1, 0, nil)
	b, _, _ := ScalePoint(DSH, FidelityHybrid, 500, 1, 4, nil)
	if a != b {
		t.Fatalf("hybrid stats differ across LPWorkers:\n0: %+v\n4: %+v", a, b)
	}
}

// TestFidelityRejectsPacketOnlyKnobs: fault injection and deadlock
// detection are packet-granularity features; asking for them at flow or
// hybrid fidelity must panic, not silently ignore the knob.
func TestFidelityRejectsPacketOnlyKnobs(t *testing.T) {
	run := func(name string, rc RunConfig) {
		nc := NetworkConfig{Scheme: DSH, Transport: TransportDCQCN, Seed: 1}
		net := NewSingleSwitch(nc, 4, 100*units.Gbps)
		rc.Specs = []FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: units.KB, Tag: "t"}}
		rc.Duration = units.Millisecond
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Run did not panic", name)
			}
		}()
		Run(net, rc)
	}
	run("faults at flow fidelity", RunConfig{
		Fidelity: FidelityFlow,
		Faults:   &FaultScenario{Name: "x", Events: []FaultEvent{}},
	})
	run("deadlock detection at hybrid fidelity", RunConfig{
		Fidelity: FidelityHybrid, DetectDeadlock: true,
	})
}

// TestFidelityHybridLocalizedHotspot exercises the regime hybrid fidelity
// is built for: one 16:1 incast into a single victim host while unrelated
// rack-local background flows run elsewhere. The classifier must send the
// incast (and its boundary) to the packet engine and keep the majority of
// the background cold — fast-forwarded, never packet-simulated.
func TestFidelityHybridLocalizedHotspot(t *testing.T) {
	const fanIn = 16
	nc := NetworkConfig{Scheme: DSH, Transport: TransportDCQCN, Seed: 1}
	nc.bufferHook = paperPressureBuffers
	ls := scaleFabric(nc)
	hosts := ls.LeafHosts

	// Victim: the first host of rack 0; senders: hosts of racks 1 and 2.
	victim := hosts[0][0]
	var specs []FlowSpec
	id := 1
	for i := 0; i < fanIn; i++ {
		src := hosts[1+i%2][i/2%len(hosts[1])]
		specs = append(specs, FlowSpec{ID: id, Src: src, Dst: victim,
			Size: 64 * units.KB, Tag: "incast"})
		id++
	}
	// Background: waves of short rack-local flows inside rack 3 — a rack
	// the incast touches on no link (victim in rack 0, senders in racks 1
	// and 2, rack-local traffic never crosses a spine). Waves are staggered
	// well past each flow's drain time, so no background port ever carries
	// enough concurrent flows to look contended.
	for wave := 0; wave < 10; wave++ {
		for i := 0; i+1 < len(hosts[3]); i += 2 {
			specs = append(specs, FlowSpec{ID: id, Src: hosts[3][i], Dst: hosts[3][i+1],
				Size: 16 * units.KB, Start: units.Time(wave) * 10 * units.Microsecond, Tag: "bg"})
			id++
		}
	}

	res := Run(ls.Network, RunConfig{
		Specs: specs, Duration: units.Millisecond, Drain: true,
		Fidelity: FidelityHybrid,
	})
	if res.Unfinished != 0 {
		t.Fatalf("%d flows unfinished", res.Unfinished)
	}
	cold := len(specs) - res.PacketFlows
	t.Logf("flows=%d packet=%d cold=%d hotLinks=%d", len(specs), res.PacketFlows, cold, res.HotLinks)
	if res.PacketFlows < fanIn {
		t.Errorf("only %d flows packet-simulated; the %d-flow incast must be classified hot",
			res.PacketFlows, fanIn)
	}
	if cold <= len(specs)/2 {
		t.Errorf("only %d of %d flows stayed cold; background must be fast-forwarded, not packet-simulated",
			cold, len(specs))
	}
}
