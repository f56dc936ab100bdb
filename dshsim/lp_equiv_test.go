package dshsim

import (
	"math/rand"
	"reflect"
	"testing"

	"dsh/units"
)

// These tests are the determinism contract of the partitioned engine: for
// every experiment family, `LPWorkers: 4` must produce results bit-identical
// to `LPWorkers: 1` — the epoch-barrier scheduler executes the same
// (at, lp, seq) total order regardless of how many goroutines run the LP
// windows. They exercise the real experiment entry points at reduced scale;
// run them under -race to also certify the barrier discipline.
//
// Note the baseline is LPWorkers:1, not the classic engine: partitioning
// changes which simulator owns which event, so same-timestamp interleaving
// (and with it sampled series) may legitimately differ from LPWorkers:0.
// The serial-vs-parallel identity below is the guarantee the engine makes.

// lpOpts returns one comparison's serial and parallel option sets. The
// sweep executor stays serial (Workers:1) so the only varying axis is the
// intra-run worker count.
func lpOpts(seed int64) (serial, parallel ExpOptions) {
	serial = ExpOptions{Seed: seed, Workers: 1, LPWorkers: 1}
	parallel = ExpOptions{Seed: seed, Workers: 1, LPWorkers: 4}
	return
}

func TestLPFig11Equivalence(t *testing.T) {
	fractions := []int{5, 20, 40}
	if testing.Short() {
		fractions = []int{20}
	}
	so, po := lpOpts(1)
	serial := fig11Sweep(so, fractions)
	parallel := fig11Sweep(po, fractions)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig11 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPFig12Equivalence(t *testing.T) {
	runs, duration := 2, 2*units.Millisecond
	if testing.Short() {
		runs, duration = 1, units.Millisecond
	}
	so, po := lpOpts(3)
	serial := Fig12Reduced(so, runs, duration)
	parallel := Fig12Reduced(po, runs, duration)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig12 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPFig13Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms simulation")
	}
	so, po := lpOpts(7)
	serial := Fig13(so)
	parallel := Fig13(po)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig13 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// tinyLP returns reduced-scale macro options for the LP contract tests.
func tinyLP(seed int64) (serial, parallel ExpOptions) {
	tiny := &fabricParams{
		leaves: 2, spines: 2, hostsPerLeaf: 2,
		rate: 100 * units.Gbps, duration: units.Millisecond, fanIn: 2,
	}
	so, po := lpOpts(seed)
	so.testFabric, po.testFabric = tiny, tiny
	so.testLoads, po.testLoads = []float64{0.3, 0.6}, []float64{0.3, 0.6}
	return so, po
}

func TestLPFig5Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms macro sweep")
	}
	so, po := tinyLP(5)
	serial := Fig5(so)
	parallel := Fig5(po)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig5 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPFig6Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms macro sweep")
	}
	so, po := tinyLP(6)
	serial := Fig6(so)
	parallel := Fig6(po)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig6 CDFs differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPFig14Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms macro sweep")
	}
	so, po := tinyLP(14)
	serial := Fig14(so)
	parallel := Fig14(po)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig14 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPFig15Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms macro sweep")
	}
	so, po := tinyLP(15)
	// Both sides at once: the serial side holds one core for as long as
	// the parallel side runs, so back to back they would leave a core idle
	// for half of the package's slowest internal test.
	var serial []Fig15Row
	done := make(chan struct{})
	go func() {
		defer close(done)
		serial = Fig15(so)
	}()
	parallel := Fig15(po)
	<-done
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig15 rows differ between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestLPAblationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms simulations")
	}
	so, po := lpOpts(21)
	if !reflect.DeepEqual(AblationInsurance(so), AblationInsurance(po)) {
		t.Error("ablation-insurance rows differ between LPWorkers:1 and LPWorkers:4")
	}
	if !reflect.DeepEqual(AblationQueueCount(so), AblationQueueCount(po)) {
		t.Error("ablation-queues rows differ between LPWorkers:1 and LPWorkers:4")
	}
}

// TestLPFaultedFatTreeEquivalence is the determinism contract of the fault
// layer: a fat-tree run with an ACTIVE scenario (periodic link flap plus a
// pause storm) must stay bit-identical between LPWorkers 1 and 4. Fault ops
// are scheduled on the coordinator, which executes single-threaded at epoch
// barriers in the (at, lp, seq) total order, so the worker count cannot
// reorder them against LP traffic.
func TestLPFaultedFatTreeEquivalence(t *testing.T) {
	type summary struct {
		AvgBg, AvgFanin units.Time
		Drops           int64
		WireDrops       int64
		PauseFrames     int64
		Unfinished      int
		Events          uint64
		Faults          FaultStats
		Deadlocked      bool
		Onset           units.Time
	}
	run := func(lp int) summary {
		const (
			rate     = 100 * units.Gbps
			duration = units.Millisecond
		)
		nc := NetworkConfig{Scheme: DSH, Transport: TransportDCQCN, Seed: 17,
			BufferPerCapacity: 40 * units.Microsecond, LPWorkers: lp}
		ft := NewFatTree(nc, 4, rate)
		// Pod 0's edge 0 (switch node 16): port 2 faces agg 0 — flap it while
		// a port-level storm hits agg 0's downlink back to that edge.
		edge, agg := ft.SwitchNode(0), ft.SwitchNode(2)
		sc := &FaultScenario{Name: "lp-equiv", Events: []FaultEvent{
			{Kind: FaultLinkFlap, At: duration / 10, Duration: duration / 20,
				Period: duration / 4, Node: edge, Port: 2},
			{Kind: FaultPauseStorm, At: duration / 6, Duration: duration / 8,
				Node: agg, Port: 0, Class: -1},
		}}
		rng := rand.New(rand.NewSource(17))
		specs := mixedSpecs(rng, ft.PodHosts, WebSearch(), 0.5, 0.8, rate, duration, 4)
		res := Run(ft.Network, RunConfig{Specs: specs, Duration: duration, Drain: true,
			Faults: sc, DetectDeadlock: true})
		return summary{
			AvgBg: res.FCT.Avg("background"), AvgFanin: res.FCT.Avg("fanin"),
			Drops: res.Drops, WireDrops: res.WireDrops, PauseFrames: res.PauseFrames,
			Unfinished: res.Unfinished, Events: res.Events, Faults: res.Faults,
			Deadlocked: res.Deadlocked, Onset: res.DeadlockOnset,
		}
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("faulted fat-tree differs between LPWorkers:1 and LPWorkers:4:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	if serial.Faults.Flaps == 0 || serial.Faults.PauseStorms == 0 {
		t.Errorf("scenario did not inject (stats %+v); equivalence test is vacuous", serial.Faults)
	}
}
