package dshsim

import (
	"math/rand"
	"testing"

	"dsh/internal/metrics"
	"dsh/internal/workload"
	"dsh/units"
)

// TestRandomNetworksEndToEnd is the whole-system property test: random
// small fabrics, random flow mixes, every scheme and transport — every
// flow must complete, nothing may be dropped (losslessness), every byte
// sent must be received, and the switch buffers must drain to empty.
func TestRandomNetworksEndToEnd(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		scheme := []Scheme{SIH, DSH}[rng.Intn(2)]
		tr := []TransportKind{TransportNone, TransportDCQCN, TransportPowerTCP}[rng.Intn(3)]
		leaves := 2 + rng.Intn(2)
		spines := 2 + rng.Intn(2)
		hostsPer := 2 + rng.Intn(3)

		nc := NetworkConfig{Scheme: scheme, Transport: tr, Seed: seed}
		ls := NewLeafSpine(nc, leaves, spines, hostsPer, 100*units.Gbps, 100*units.Gbps)

		nHosts := leaves * hostsPer
		nFlows := 10 + rng.Intn(40)
		var specs []FlowSpec
		var totalPayload units.ByteSize
		for i := 0; i < nFlows; i++ {
			src := rng.Intn(nHosts)
			dst := rng.Intn(nHosts)
			for dst == src {
				dst = rng.Intn(nHosts)
			}
			size := units.ByteSize(100 + rng.Intn(300_000))
			specs = append(specs, FlowSpec{
				ID: i + 1, Src: src, Dst: dst, Size: size,
				Start: units.Time(rng.Intn(int(500 * units.Microsecond))),
				Class: Class(rng.Intn(7)),
				Tag:   "rand",
			})
			totalPayload += size
		}
		res := Run(ls.Network, RunConfig{
			Specs: specs, Duration: 5 * units.Millisecond,
			Drain: true, DrainCap: 100 * units.Millisecond,
		})
		if res.Drops != 0 {
			t.Errorf("seed %d (%s/%s): %d drops — losslessness violated", seed, scheme, tr, res.Drops)
		}
		if res.Unfinished != 0 {
			t.Errorf("seed %d (%s/%s): %d flows unfinished", seed, scheme, tr, res.Unfinished)
		}
		var received units.ByteSize
		for _, h := range ls.Hosts {
			received += h.RxDataBytes()
		}
		if received != totalPayload {
			t.Errorf("seed %d: conservation violated: sent %d, received %d", seed, totalPayload, received)
		}
		// All switch buffers must have drained.
		snap := metrics.SnapshotOccupancy(ls.Network)
		if snap.SharedUsed != 0 || snap.HeadroomUsed != 0 {
			t.Errorf("seed %d: residual buffer occupancy: shared=%d headroom=%d",
				seed, snap.SharedUsed, snap.HeadroomUsed)
		}
		// No port may be left paused after everything drained.
		sum := metrics.CollectPauses(ls.Network)
		for _, h := range ls.Hosts {
			if h.Port().PortPaused() {
				t.Errorf("seed %d: host port still paused at end", seed)
			}
		}
		_ = sum
	}
}

// TestPausesAccountedOnlyWhereGenerated checks the pause-summary plumbing
// against a scenario with a known pause pattern.
func TestPausesAccountedOnlyWhereGenerated(t *testing.T) {
	net := NewSingleSwitch(NetworkConfig{Scheme: SIH, Seed: 1}, 18, 100*units.Gbps)
	res := Run(net, RunConfig{
		Specs:    specsIncast(16, 400*units.KB, 17),
		Duration: 10 * units.Millisecond,
	})
	if res.PauseFrames == 0 {
		t.Fatal("setup: expected pauses")
	}
	sum := metrics.CollectPauses(net)
	if sum.HostClassPaused == 0 {
		t.Error("host pause time not accounted")
	}
	if sum.SwitchClassPaused != 0 || sum.SwitchPortPaused != 0 {
		t.Error("single-switch topology cannot have switch-side pauses")
	}
	if sum.PerClass[0] == 0 {
		t.Error("per-class split missing class 0")
	}
	if sum.Frames != res.PauseFrames {
		t.Errorf("frame counts disagree: %d vs %d", sum.Frames, res.PauseFrames)
	}
	if sum.Total() != sum.HostClassPaused+sum.HostPortPaused {
		t.Error("Total() inconsistent")
	}
}

// TestDeterministicRuns verifies bit-identical behaviour across repeated
// runs with the same seed — the foundation of the paired SIH/DSH
// comparisons.
func TestDeterministicRuns(t *testing.T) {
	run := func() (units.Time, int64, uint64) {
		nc := NetworkConfig{Scheme: DSH, Transport: TransportDCQCN, Seed: 42}
		ls := NewLeafSpine(nc, 2, 2, 3, 100*units.Gbps, 100*units.Gbps)
		rng := rand.New(rand.NewSource(42))
		bg := workload.Background{
			Hosts: []int{0, 1, 2, 3, 4, 5}, Dist: workload.Cache(),
			Load: 0.5, HostRate: 100 * units.Gbps,
			Classes: []Class{0, 1, 2},
		}
		specs := bg.Generate(rng, 2*units.Millisecond, 0)
		res := Run(ls.Network, RunConfig{Specs: specs, Duration: 2 * units.Millisecond})
		return res.FCT.Avg("background"), res.PauseFrames, res.Events
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

// TestFig11Shape is a fast end-to-end check of the paper's headline
// microbenchmark at one burst size.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms simulation")
	}
	sih := Fig11Point(SIH, 20, deriveSeed(1, "fig11", 2, 0), 0, nil)
	dsh := Fig11Point(DSH, 20, deriveSeed(1, "fig11", 2, 0), 0, nil)
	if sih == 0 {
		t.Error("SIH absorbed a 20pc-of-buffer burst without pausing")
	}
	if dsh != 0 {
		t.Errorf("DSH paused (%v) on a 20 percent burst it should absorb", dsh)
	}
}

// TestAblationInsuranceShape checks the losslessness ablation outcome.
func TestAblationInsuranceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms simulation")
	}
	rows := AblationInsurance(ExpOptions{Seed: 1})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	full, ablated := rows[0], rows[1]
	if full.Drops != 0 {
		t.Errorf("full DSH dropped %d packets", full.Drops)
	}
	if ablated.Drops == 0 {
		t.Error("ablated DSH did not drop — insurance appears redundant, which contradicts the design")
	}
}
