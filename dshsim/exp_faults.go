package dshsim

import (
	"fmt"
	"math/rand"

	"dsh/units"
)

// FaultsRow is one (fault class × scheme) measurement of the fault-injection
// family: the §V-B leaf–spine fabric with DCQCN web-search traffic, replayed
// byte-identically under SIH and DSH while one class of fault is active.
type FaultsRow struct {
	Fault  string
	Scheme Scheme

	AvgBgFCT    units.Time
	P99BgFCT    units.Time
	AvgFaninFCT units.Time
	Unfinished  int

	// Drops counts lossless admission failures; WireDrops packets lost on
	// fault-downed links (flap classes only).
	Drops     int64
	WireDrops int64
	// PauseFrames counts PAUSE transitions at host uplinks.
	PauseFrames int64
	// Deadlocked reports a confirmed cyclic buffer dependency during the
	// run; Onset its first scan time (-1 when none).
	Deadlocked bool
	Onset      units.Time
	// Stats echoes what the injector did (flap counts, storm durations, …).
	Stats FaultStats
}

// faultClass names a built-in scenario generator; scenarios are built
// against the assembled fabric because they target concrete node IDs.
type faultClass struct {
	name string
	mk   func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario
}

// faultClasses returns the built-in fault sweep: a clean baseline plus one
// representative scenario per fault kind, each sized relative to the run so
// reduced and full scale stress the same fraction of the run.
func faultClasses() []faultClass {
	return []faultClass{
		{"none", func(*LeafSpineTopo, fabricParams) *FaultScenario { return nil }},
		{"flap", func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario {
			// Leaf 0's uplink to spine 0 flaps periodically: down 5% of each
			// quarter of the run. ECMP keeps routing over the dead link (the
			// fault layer does not recompute routes — that is the point), so
			// flows hashed onto it stall and their packets drop on the wire.
			return &FaultScenario{Name: "flap", Events: []FaultEvent{{
				Kind: FaultLinkFlap, At: fp.duration / 10, Duration: fp.duration / 20,
				Period: fp.duration / 4, Node: ls.LeafNode[0], Port: fp.hostsPerLeaf,
			}}}
		}},
		{"storm", func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario {
			// A forced port-level pause storm on the same uplink: everything
			// queued to spine 0 from leaf 0 stops for 10% of the run, and PFC
			// backpressure spreads the damage upstream.
			return &FaultScenario{Name: "storm", Events: []FaultEvent{{
				Kind: FaultPauseStorm, At: fp.duration / 4, Duration: fp.duration / 10,
				Node: ls.LeafNode[0], Port: fp.hostsPerLeaf, Class: -1,
			}}}
		}},
		{"slow-nic", func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario {
			// Host 0's NIC drains at 30% for half the run: the classic slow
			// receiver that victimizes everyone sharing its leaf.
			return &FaultScenario{Name: "slow-nic", Events: []FaultEvent{{
				Kind: FaultSlowNIC, At: fp.duration / 8, Duration: fp.duration / 2,
				Node: ls.LeafHosts[0][0], DrainFraction: 0.3,
			}}}
		}},
		{"skew", func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario {
			// One-way +10 µs on leaf 0's uplink for half the run: headroom is
			// provisioned for the configured link delay, so skew stresses the
			// flight-size assumptions under both schemes.
			return &FaultScenario{Name: "skew", Events: []FaultEvent{{
				Kind: FaultLatencySkew, At: fp.duration / 8, Duration: fp.duration / 2,
				Node: ls.LeafNode[0], Port: fp.hostsPerLeaf, ExtraDelay: 10 * units.Microsecond,
			}}}
		}},
		{"rewire", func(ls *LeafSpineTopo, fp fabricParams) *FaultScenario {
			// Leaf 0 forwards packets for its own host 0 back up to spine 0,
			// which routes them down again: a transient routing loop that
			// inflates buffer occupancy until the route is restored.
			return &FaultScenario{Name: "rewire", Events: []FaultEvent{{
				Kind: FaultRewireLoop, At: fp.duration / 4, Duration: fp.duration / 8,
				Node: ls.LeafNode[0], Dst: ls.LeafHosts[0][0], ToPort: fp.hostsPerLeaf,
			}}}
		}},
	}
}

// Faults runs the fault-injection family under both schemes against the
// same web-search + incast workload (one shared seed, so the clean "none"
// rows are the baseline every fault is compared to), with the deadlock
// detector armed on every run. A nil sc runs every built-in fault class;
// otherwise sc (e.g. from dshbench -faults) is the only scenario, its node
// IDs addressing the benchmark leaf–spine fabric: hosts 0..H-1 first, then
// switches (leaves before spines).
func Faults(opt ExpOptions, sc *FaultScenario) []FaultsRow {
	classes := faultClasses()
	if sc != nil {
		classes = []faultClass{{sc.Name, func(*LeafSpineTopo, fabricParams) *FaultScenario { return sc }}}
	}
	seed := deriveSeed(opt.Seed, "faults", 0, 0)
	pairs := schemeSweep(opt, "faults", len(classes),
		func(ci int, scheme Scheme) string { return fmt.Sprintf("%s/%s", classes[ci].name, scheme) },
		func(ci int, scheme Scheme) FaultsRow { return runFaultsRow(opt, classes[ci], scheme, seed) })
	var rows []FaultsRow
	for _, p := range pairs {
		rows = append(rows, p[:]...)
	}
	return rows
}

// ValidateFaults checks sc against the leaf–spine fabric the faults family
// builds at opt's scale, so a scenario addressing a node or port that
// fabric lacks is an error before any job starts, not a panic inside one.
// SIH and DSH share the fabric's node and port layout, so one classic-engine
// build covers both. A nil sc is valid and builds nothing.
func ValidateFaults(opt ExpOptions, sc *FaultScenario) error {
	if sc == nil {
		return nil
	}
	fp := fabric(opt)
	opt.LPWorkers = 0
	ls := NewLeafSpine(evalNetConfig(opt, SIH, TransportDCQCN, 0), fp.leaves, fp.spines, fp.hostsPerLeaf, fp.rate, fp.rate)
	return sc.Validate(ls.Network)
}

func runFaultsRow(opt ExpOptions, class faultClass, scheme Scheme, seed int64) FaultsRow {
	fp := fabric(opt)
	nc := evalNetConfig(opt, scheme, TransportDCQCN, seed)
	ls := NewLeafSpine(nc, fp.leaves, fp.spines, fp.hostsPerLeaf, fp.rate, fp.rate)
	rng := rand.New(rand.NewSource(seed))
	specs := mixedSpecs(rng, ls.LeafHosts, WebSearch(), 0.6, 0.9, fp.rate, fp.duration, fp.fanIn)
	res := Run(ls.Network, RunConfig{
		Specs: specs, Duration: fp.duration, Drain: true, DrainCap: 10 * fp.duration,
		Faults: class.mk(ls, fp), DetectDeadlock: true,
	})
	opt.Stats.note(res)
	return FaultsRow{
		Fault:       class.name,
		Scheme:      scheme,
		AvgBgFCT:    res.FCT.Avg("background"),
		P99BgFCT:    res.FCT.Percentile("background", 0.99),
		AvgFaninFCT: res.FCT.Avg("fanin"),
		Unfinished:  res.Unfinished,
		Drops:       res.Drops,
		WireDrops:   res.WireDrops,
		PauseFrames: res.PauseFrames,
		Deadlocked:  res.Deadlocked,
		Onset:       res.DeadlockOnset,
		Stats:       res.Faults,
	}
}
