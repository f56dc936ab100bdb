package topology

import (
	"testing"

	"dsh/internal/core"
	"dsh/internal/sim"
	"dsh/internal/transport"
	"dsh/units"
)

func newFlow(id, src, dst int, size units.ByteSize, start units.Time) *transport.Flow {
	return &transport.Flow{
		ID: id, Src: src, Dst: dst, Class: 0, Size: size, Start: start,
		CC: transport.NewLineRate(), FinishedAt: -1,
	}
}

func TestSingleSwitchOneFlow(t *testing.T) {
	s := sim.New()
	var done []*transport.Flow
	cfg := Config{Sim: s, Scheme: DSH, OnFlowDone: func(f *transport.Flow) { done = append(done, f) }}
	n := SingleSwitch(cfg, 4, 100*units.Gbps)

	const size = 100_000
	n.AddFlow(newFlow(1, 0, 3, size, 0))
	s.RunUntil(5 * units.Millisecond)

	if len(done) != 1 {
		t.Fatalf("completed %d flows, want 1", len(done))
	}
	f := done[0]
	if f.Acked != size {
		t.Errorf("acked %d, want %d", f.Acked, size)
	}
	// Expected FCT: ~size at 100G + 2 hops of 2us prop each way + ack.
	// Loose bounds: between the pure serialization time and 3x it.
	ser := units.TransmissionTime(size, 100*units.Gbps)
	if f.FCT() < ser || f.FCT() > 3*ser+20*units.Microsecond {
		t.Errorf("FCT %v outside plausible range (ser %v)", f.FCT(), ser)
	}
	if n.Drops() != 0 {
		t.Errorf("drops = %d, want 0", n.Drops())
	}
	if got := n.Hosts[3].RxDataBytes(); got != size {
		t.Errorf("receiver got %d payload bytes, want %d", got, size)
	}
}

func TestSingleSwitchBidirectional(t *testing.T) {
	s := sim.New()
	var done int
	cfg := Config{Sim: s, OnFlowDone: func(*transport.Flow) { done++ }}
	n := SingleSwitch(cfg, 4, 100*units.Gbps)
	n.AddFlow(newFlow(1, 0, 1, 50_000, 0))
	n.AddFlow(newFlow(2, 1, 0, 50_000, 0))
	n.AddFlow(newFlow(3, 2, 3, 50_000, 10*units.Microsecond))
	s.RunUntil(5 * units.Millisecond)
	if done != 3 {
		t.Fatalf("completed %d flows, want 3", done)
	}
}

func TestIncastTriggersPFCUnderSIHNotDSH(t *testing.T) {
	// 16-to-1 incast of ~1MB each into one port: SIH's thin shared buffer
	// must pause; DSH's must absorb far more before pausing.
	run := func(scheme Scheme) (pauseFrames int64, drops int64) {
		s := sim.New()
		cfg := Config{Sim: s, Scheme: scheme, Buffer: 16 * units.MB}
		n := SingleSwitch(cfg, 18, 100*units.Gbps)
		for i := 0; i < 16; i++ {
			n.AddFlow(newFlow(100+i, i, 17, 600_000, 0))
		}
		s.RunUntil(3 * units.Millisecond)
		for _, h := range n.Hosts {
			pauseFrames += h.Port().PauseFrames()
		}
		return pauseFrames, n.Drops()
	}
	sihPauses, sihDrops := run(SIH)
	dshPauses, dshDrops := run(DSH)
	if sihDrops != 0 || dshDrops != 0 {
		t.Errorf("lossless violated: SIH drops=%d DSH drops=%d", sihDrops, dshDrops)
	}
	if sihPauses == 0 {
		t.Error("SIH absorbed a 9.6MB incast without any PAUSE (shared buffer is only ~3MB)")
	}
	if dshPauses >= sihPauses {
		t.Errorf("DSH pauses (%d) not fewer than SIH (%d)", dshPauses, sihPauses)
	}
	t.Logf("pause frames: SIH=%d DSH=%d", sihPauses, dshPauses)
}

func TestIncastLosslessAndComplete(t *testing.T) {
	for _, scheme := range []Scheme{SIH, DSH} {
		s := sim.New()
		var done int
		cfg := Config{Sim: s, Scheme: scheme, OnFlowDone: func(*transport.Flow) { done++ }}
		n := SingleSwitch(cfg, 18, 100*units.Gbps)
		total := units.ByteSize(0)
		for i := 0; i < 16; i++ {
			n.AddFlow(newFlow(100+i, i, 17, 400_000, 0))
			total += 400_000
		}
		s.RunUntil(10 * units.Millisecond)
		if done != 16 {
			t.Errorf("[%s] completed %d/16 incast flows", scheme, done)
		}
		if got := n.Hosts[17].RxDataBytes(); got != total {
			t.Errorf("[%s] receiver got %d, want %d", scheme, got, total)
		}
		if n.Drops() != 0 {
			t.Errorf("[%s] drops = %d, want 0 (lossless)", scheme, n.Drops())
		}
	}
}

func TestCollateralUnitWiring(t *testing.T) {
	s := sim.New()
	var done int
	cfg := Config{Sim: s, OnFlowDone: func(*transport.Flow) { done++ }}
	cd := CollateralUnit(cfg, 24, 100*units.Gbps)
	if len(cd.Hosts) != 28 || len(cd.Switches) != 2 {
		t.Fatalf("hosts=%d switches=%d, want 28/2", len(cd.Hosts), len(cd.Switches))
	}
	// F0: H0 -> R0 must traverse S0 then S1.
	cd.AddFlow(newFlow(1, cd.H0, cd.R0, 30_000, 0))
	// A fan host -> R1 stays inside S1.
	cd.AddFlow(newFlow(2, cd.FanHosts[0], cd.R1, 30_000, 0))
	s.RunUntil(2 * units.Millisecond)
	if done != 2 {
		t.Fatalf("completed %d flows, want 2", done)
	}
	if cd.Switches[0].RxBytes(0) == 0 {
		t.Error("F0 did not enter S0 port 0")
	}
}

func TestLeafSpineAllPairs(t *testing.T) {
	s := sim.New()
	var done int
	cfg := Config{Sim: s, OnFlowDone: func(*transport.Flow) { done++ }}
	ls := LeafSpine(cfg, 4, 4, 4, 100*units.Gbps, 100*units.Gbps)
	if len(ls.Hosts) != 16 || len(ls.Switches) != 8 {
		t.Fatalf("hosts=%d switches=%d, want 16/8", len(ls.Hosts), len(ls.Switches))
	}
	// One flow between every rack pair (diagonal-ish sample).
	id := 1
	for l := 0; l < 4; l++ {
		src := ls.LeafHosts[l][0]
		dst := ls.LeafHosts[(l+1)%4][1]
		ls.AddFlow(newFlow(id, src, dst, 40_000, 0))
		id++
	}
	s.RunUntil(5 * units.Millisecond)
	if done != 4 {
		t.Fatalf("completed %d flows, want 4", done)
	}
	if ls.Drops() != 0 {
		t.Errorf("drops = %d", ls.Drops())
	}
}

func TestLeafSpineECMPSpreads(t *testing.T) {
	// Many flows between two racks should spread over the spines.
	s := sim.New()
	cfg := Config{Sim: s}
	ls := LeafSpine(cfg, 2, 4, 4, 100*units.Gbps, 100*units.Gbps)
	for i := 0; i < 64; i++ {
		ls.AddFlow(newFlow(1000+i, ls.LeafHosts[0][i%4], ls.LeafHosts[1][i%4], 10_000, 0))
	}
	s.RunUntil(5 * units.Millisecond)
	used := 0
	for s0 := 0; s0 < 4; s0++ {
		sw := ls.SwitchByNode(ls.SpineNode[s0])
		var rx units.ByteSize
		for pt := 0; pt < sw.Ports(); pt++ {
			rx += sw.RxBytes(pt)
		}
		if rx > 0 {
			used++
		}
	}
	if used < 3 {
		t.Errorf("only %d/4 spines carried traffic; ECMP not spreading", used)
	}
}

func TestDeadlockTopoBouncePaths(t *testing.T) {
	s := sim.New()
	var done int
	cfg := Config{Sim: s, OnFlowDone: func(*transport.Flow) { done++ }}
	dt := Deadlock(cfg, 4, 100*units.Gbps, 400*units.Gbps)
	if len(dt.Hosts) != 16 || len(dt.Switches) != 6 {
		t.Fatalf("hosts=%d switches=%d, want 16/6", len(dt.Hosts), len(dt.Switches))
	}
	// L0 host -> L3 host: must take a bounce path (L0→S0→Lx→S1→L3) since
	// S0–L3 and S1–L0 are down.
	dt.AddFlow(newFlow(1, dt.LeafHosts[0][0], dt.LeafHosts[3][0], 20_000, 0))
	// L3 host -> L0 host: reverse bounce.
	dt.AddFlow(newFlow(2, dt.LeafHosts[3][1], dt.LeafHosts[0][1], 20_000, 0))
	s.RunUntil(5 * units.Millisecond)
	if done != 2 {
		t.Fatalf("completed %d flows, want 2 (bounce paths broken?)", done)
	}
	// The bounce must pass through a middle leaf: L1 or L2 relayed bytes on
	// an uplink ingress.
	relayed := false
	for _, l := range []int{1, 2} {
		sw := dt.SwitchByNode(dt.LeafNode[l])
		if sw.RxBytes(4) > 0 || sw.RxBytes(5) > 0 { // uplink ports for 4 hosts
			relayed = true
		}
	}
	if !relayed {
		t.Error("no middle-leaf relay traffic; bounce path not taken")
	}
}

func TestDeadlockFailedLinksCarryNothing(t *testing.T) {
	s := sim.New()
	cfg := Config{Sim: s}
	dt := Deadlock(cfg, 4, 100*units.Gbps, 400*units.Gbps)
	dt.AddFlow(newFlow(1, dt.LeafHosts[0][0], dt.LeafHosts[3][0], 50_000, 0))
	s.RunUntil(5 * units.Millisecond)
	// S0 port 3 (to L3) and S1 port 0 (to L0) are failed.
	s0 := dt.SwitchByNode(dt.SpineNode[0])
	if s0.Port(3).TxBytes() != 0 {
		t.Error("failed link S0-L3 transmitted bytes")
	}
	s1 := dt.SwitchByNode(dt.SpineNode[1])
	if s1.Port(0).TxBytes() != 0 {
		t.Error("failed link S1-L0 transmitted bytes")
	}
}

func TestFatTreeK4(t *testing.T) {
	s := sim.New()
	var done int
	cfg := Config{Sim: s, OnFlowDone: func(*transport.Flow) { done++ }}
	ft := FatTree(cfg, 4, 100*units.Gbps)
	if len(ft.Hosts) != 16 {
		t.Fatalf("hosts = %d, want 16", len(ft.Hosts))
	}
	if len(ft.Switches) != 4*4+4 { // 4 pods * (2 edge + 2 agg) + 4 cores
		t.Fatalf("switches = %d, want 20", len(ft.Switches))
	}
	// Inter-pod, intra-pod, and intra-edge flows.
	ft.AddFlow(newFlow(1, ft.PodHosts[0][0], ft.PodHosts[3][3], 30_000, 0))
	ft.AddFlow(newFlow(2, ft.PodHosts[1][0], ft.PodHosts[1][3], 30_000, 0))
	ft.AddFlow(newFlow(3, ft.PodHosts[2][0], ft.PodHosts[2][1], 30_000, 0))
	s.RunUntil(5 * units.Millisecond)
	if done != 3 {
		t.Fatalf("completed %d flows, want 3", done)
	}
	if ft.Drops() != 0 {
		t.Errorf("drops = %d", ft.Drops())
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd k")
		}
	}()
	FatTree(Config{}, 3, units.Gbps)
}

func TestPeerLookup(t *testing.T) {
	s := sim.New()
	n := SingleSwitch(Config{Sim: s}, 2, units.Gbps)
	peer, port, ok := n.Peer(0, 0)
	if !ok || peer != n.SwitchNode(0) || port != 0 {
		t.Errorf("Peer(0,0) = %d,%d,%v", peer, port, ok)
	}
	if _, _, ok := n.Peer(0, 5); ok {
		t.Error("Peer on unwired port should report !ok")
	}
}

func TestFlowClassesIsolatedByDWRR(t *testing.T) {
	// Two flows in different classes share a bottleneck fairly.
	s := sim.New()
	var fcts = map[int]units.Time{}
	cfg := Config{Sim: s, OnFlowDone: func(f *transport.Flow) { fcts[f.ID] = f.FCT() }}
	n := SingleSwitch(cfg, 3, 100*units.Gbps)
	f1 := newFlow(1, 0, 2, 500_000, 0)
	f1.Class = 0
	f2 := newFlow(2, 1, 2, 500_000, 0)
	f2.Class = 1
	n.AddFlow(f1)
	n.AddFlow(f2)
	s.RunUntil(10 * units.Millisecond)
	if len(fcts) != 2 {
		t.Fatalf("completed %d flows, want 2", len(fcts))
	}
	ratio := float64(fcts[1]) / float64(fcts[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("FCT ratio %v, want ~1 (fair DWRR share)", ratio)
	}
}

func TestAckClassZeroConfigKeepsDefault(t *testing.T) {
	s := sim.New()
	n := SingleSwitch(Config{Sim: s, Classes: 8}, 2, units.Gbps)
	if n.Cfg.AckClass != 7 {
		t.Errorf("AckClass default = %d, want 7", n.Cfg.AckClass)
	}
}

func TestNetworkNodeHelpers(t *testing.T) {
	s := sim.New()
	n := SingleSwitch(Config{Sim: s}, 3, units.Gbps)
	if n.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", n.NumNodes())
	}
	if !n.IsSwitchNode(3) || n.IsSwitchNode(2) || n.IsSwitchNode(4) {
		t.Error("IsSwitchNode misclassifies")
	}
	if n.SwitchByNode(n.SwitchNode(0)) != n.Switches[0] {
		t.Error("SwitchByNode roundtrip failed")
	}
	// LPWorkers 0 is a Parallel with no LPs: one device group, on Sim.
	if n.Par.LPCount() != 0 || n.LPCount() != 1 || n.Partitioned() {
		t.Errorf("classic: Par.LPCount %d, LPCount %d, Partitioned %v; want 0, 1, false",
			n.Par.LPCount(), n.LPCount(), n.Partitioned())
	}
	for node := 0; node < n.NumNodes(); node++ {
		if n.SimOf(node) != s || n.LPOfNode(node) != 0 {
			t.Errorf("classic: node %d runs on LP %d, not on Sim", node, n.LPOfNode(node))
		}
	}
	// A partitioned leaf–spine: one LP per leaf with its hosts, one per spine.
	ls := LeafSpine(Config{Sim: sim.New(), LPWorkers: 2}, 2, 2, 2, units.Gbps, units.Gbps)
	if ls.LPCount() != ls.Par.LPCount() || ls.LPCount() <= 1 || !ls.Partitioned() {
		t.Errorf("partitioned: LPCount %d, Par.LPCount %d, Partitioned %v",
			ls.LPCount(), ls.Par.LPCount(), ls.Partitioned())
	}
	for l, hosts := range ls.LeafHosts {
		for _, h := range hosts {
			if ls.SimOf(h) != ls.SimOf(ls.LeafNode[l]) {
				t.Errorf("partitioned: host %d and its leaf %d run on different simulators", h, l)
			}
		}
	}
	if ls.SimOf(ls.LeafNode[0]) == ls.SimOf(ls.SpineNode[0]) || ls.SimOf(ls.SpineNode[0]) == ls.Sim {
		t.Error("partitioned: a spine shares a simulator with a leaf or the coordinator")
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SingleSwitch(Config{Sim: sim.New(), Scheme: "BOGUS"}, 2, units.Gbps)
}

func TestBufferSizingRules(t *testing.T) {
	s := sim.New()
	// BufferPerCapacity: 4 ports × 100G × 40us = 2MB.
	n := SingleSwitch(Config{Sim: s, BufferPerCapacity: 40 * units.Microsecond}, 4, 100*units.Gbps)
	want := units.BytesInTime(40*units.Microsecond, 400*units.Gbps)
	if got := n.Switches[0].MMU().Config().TotalBuffer; got != want {
		t.Errorf("per-capacity buffer = %v, want %v", got, want)
	}
	// SIHReservedFraction: reservation / 0.5.
	s2 := sim.New()
	n2 := SingleSwitch(Config{Sim: s2, SIHReservedFraction: 0.5}, 4, 100*units.Gbps)
	cfg2 := n2.Switches[0].MMU().Config()
	eta := core.RequiredHeadroom(100*units.Gbps, 2*units.Microsecond, 1500)
	reserved := units.ByteSize(4*7) * (3*units.KB + eta)
	if got := cfg2.TotalBuffer; got != units.ByteSize(float64(reserved)/0.5) {
		t.Errorf("fraction buffer = %v, want %v", got, units.ByteSize(float64(reserved)/0.5))
	}
	// BufferFor hook takes precedence over the others.
	s3 := sim.New()
	var hookName string
	n3 := SingleSwitch(Config{
		Sim:                 s3,
		SIHReservedFraction: 0.5,
		BufferFor: func(name string, _ units.ByteSize, _ units.BitRate) units.ByteSize {
			hookName = name
			return 7 * units.MB
		},
	}, 4, 100*units.Gbps)
	if got := n3.Switches[0].MMU().Config().TotalBuffer; got != 7*units.MB {
		t.Errorf("hook buffer = %v, want 7MB", got)
	}
	if hookName != "s0" {
		t.Errorf("hook saw name %q", hookName)
	}
}

func TestSIHFractionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for fraction ≥ 1")
		}
	}()
	SingleSwitch(Config{Sim: sim.New(), SIHReservedFraction: 1.5}, 2, units.Gbps)
}
