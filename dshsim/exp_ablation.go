package dshsim

import (
	"fmt"

	"dsh/internal/topology"
	"dsh/units"
)

// Ablation experiments for the design choices DESIGN.md calls out. They are
// not figures from the paper; they probe *why* DSH is built the way it is.

// AblationResult bundles the three ablation sweeps into one result value.
type AblationResult struct {
	Insurance  []AblationInsuranceRow
	Alpha      []AblationAlphaRow
	QueueCount []AblationQueueCountRow
}

// Ablation runs the three ablation sweeps: the ablation family.
func Ablation(opt ExpOptions) AblationResult {
	return AblationResult{
		Insurance:  AblationInsurance(opt),
		Alpha:      AblationAlpha(opt),
		QueueCount: AblationQueueCount(opt),
	}
}

// AblationInsuranceRow reports the lossless-guarantee ablation: DSH with
// and without the port-level flow control + insurance headroom, under an
// all-ports burst designed to physically exhaust the shared segment.
type AblationInsuranceRow struct {
	Variant     string // "DSH" or "DSH-noport"
	Drops       int64
	PauseFrames int64
	Completed   int
}

// AblationInsurance slams every port of a switch with multi-class bursts
// under a large DT α (so queue-level thresholds are loose). Full DSH must
// absorb the overload into insurance headroom via port-level pauses; the
// ablated variant without insurance drops packets, demonstrating that the
// queue-level mechanism alone cannot guarantee losslessness.
func AblationInsurance(opt ExpOptions) []AblationInsuranceRow {
	const (
		hosts = 18
		rate  = 100 * units.Gbps
	)
	variants := []bool{false, true}
	// Both variants replay the same (deterministic) burst: paired seed.
	seed := deriveSeed(opt.Seed, "ablation-insurance", 0, 0)
	return sweep(opt, "ablation-insurance", len(variants),
		func(i int) string {
			if variants[i] {
				return "DSH-noport"
			}
			return "DSH"
		},
		func(i int) AblationInsuranceRow {
			disable := variants[i]
			nc := NetworkConfig{
				Scheme:           DSH,
				Transport:        TransportNone,
				Buffer:           4 * units.MB, // cramped buffer
				Alpha:            4,            // DT barely restrains queues
				DisablePortLevel: disable,
				Seed:             seed,
				LPWorkers:        opt.LPWorkers,
			}
			net := NewSingleSwitch(nc, hosts, rate)
			// 16 senders × 4 classes, all into one port: ~6 MB offered
			// against a 4 MB buffer.
			var specs []FlowSpec
			id := 1
			for i := 0; i < 16; i++ {
				for c := 0; c < 4; c++ {
					specs = append(specs, FlowSpec{
						ID: id, Src: i, Dst: 17, Size: 96 * units.KB,
						Class: Class(c), Tag: "burst",
					})
					id++
				}
			}
			res := Run(net, RunConfig{Specs: specs, Duration: 20 * units.Millisecond})
			name := "DSH"
			if disable {
				name = "DSH-noport"
			}
			return AblationInsuranceRow{
				Variant:     name,
				Drops:       res.Drops,
				PauseFrames: res.PauseFrames,
				Completed:   res.FCT.Count("burst"),
			}
		})
}

// AblationAlphaRow reports burst absorption for one DT α value.
type AblationAlphaRow struct {
	Alpha float64
	// MaxPauseFreeBurstPct is the largest burst (% of buffer) absorbed
	// without any PAUSE, per scheme (0 when even the smallest probed burst
	// pauses).
	SIHMaxPct int
	DSHMaxPct int
}

// AblationAlpha sweeps the DT control parameter: larger α lets queues take
// more of the free buffer, improving burst absorption for both schemes,
// with DSH keeping its advantage throughout.
func AblationAlpha(opt ExpOptions) []AblationAlphaRow {
	alphas := []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1}
	pcts := []int{5, 10, 20, 30, 40, 50, 60, 70}
	probes := probePauseFree(opt, "ablation-alpha", len(alphas), pcts,
		func(point int, scheme Scheme, pct int, seed int64) bool {
			return pauseFreeBurst(scheme, alphas[point], 8, pct, seed, opt.LPWorkers)
		})
	var rows []AblationAlphaRow
	for ai, a := range alphas {
		rows = append(rows, AblationAlphaRow{Alpha: a, SIHMaxPct: probes[ai][0], DSHMaxPct: probes[ai][1]})
	}
	return rows
}

// AblationQueueCountRow reports burst absorption versus the number of
// priority classes per port.
type AblationQueueCountRow struct {
	Classes   int // total classes (one reserved for ACKs)
	SIHMaxPct int
	DSHMaxPct int
}

// AblationQueueCount validates the Theorem 1 remark in simulation: SIH's
// burst absorption degrades as the per-port queue count grows (its static
// reservation scales with Nq), while DSH's is unaffected — the property
// that lets DSH support many service classes.
func AblationQueueCount(opt ExpOptions) []AblationQueueCountRow {
	classCounts := []int{3, 5, 8}
	pcts := []int{5, 10, 20, 30, 40, 50}
	probes := probePauseFree(opt, "ablation-queues", len(classCounts), pcts,
		func(point int, scheme Scheme, pct int, seed int64) bool {
			return pauseFreeBurst(scheme, 1.0/16, classCounts[point], pct, seed, opt.LPWorkers)
		})
	var rows []AblationQueueCountRow
	for ci, classes := range classCounts {
		rows = append(rows, AblationQueueCountRow{Classes: classes, SIHMaxPct: probes[ci][0], DSHMaxPct: probes[ci][1]})
	}
	return rows
}

// probePauseFree fans every (sweep point × burst size × scheme) probe of a
// burst-absorption ablation through the executor and reduces each
// (point, scheme) group to its largest pause-free burst percentage,
// indexed like pairedSchemes. Probes within a point share the point's seed
// (the workload is deterministic; pairing keeps SIH and DSH comparable).
func probePauseFree(opt ExpOptions, expID string, points int, pcts []int,
	probe func(point int, scheme Scheme, pct int, seed int64) bool) [][2]int {
	np := len(pcts)
	ok := schemeSweep(opt, expID, points*np,
		func(i int, scheme Scheme) string {
			return fmt.Sprintf("point %d %s burst %d%%", i/np, scheme, pcts[i%np])
		},
		func(i int, scheme Scheme) bool {
			return probe(i/np, scheme, pcts[i%np], deriveSeed(opt.Seed, expID, i/np, 0))
		})
	out := make([][2]int, points)
	for i, pair := range ok {
		for si, pauseFree := range pair {
			if pauseFree && pcts[i%np] > out[i/np][si] {
				out[i/np][si] = pcts[i%np]
			}
		}
	}
	return out
}

// pauseFreeBurst runs a Fig. 11-style 16-way fan-in burst of the given size
// (% of buffer) and reports whether the fan-in hosts saw zero pauses.
// Larger bursts imply pauses for smaller ones, so callers can take the max
// over an increasing probe sequence.
func pauseFreeBurst(scheme Scheme, alpha float64, classes int, burstPct int, seed int64, lpWorkers int) bool {
	const (
		hosts  = 32
		rate   = 100 * units.Gbps
		buffer = 16 * units.MB
	)
	net := newNet(NetworkConfig{
		Scheme: scheme, Transport: TransportNone, Buffer: buffer,
		Alpha: alpha, Seed: seed, LPWorkers: lpWorkers,
	}, func(cfg topology.Config) *Network {
		cfg.Classes = classes
		cfg.AckClass = classes - 1
		return topology.SingleSwitch(cfg, hosts, rate)
	})

	burstTotal := units.ByteSize(float64(buffer) * float64(burstPct) / 100)
	perSender := burstTotal / 16
	burstAt := 500 * units.Microsecond
	horizon := burstAt + 3*units.TransmissionTime(burstTotal, rate) + 2*units.Millisecond

	bgSize := units.BytesInTime(2*horizon, rate)
	specs := []FlowSpec{
		{ID: 1, Src: 0, Dst: 31, Size: bgSize, Class: 1, Tag: "background"},
		{ID: 2, Src: 1, Dst: 31, Size: bgSize, Class: 1, Tag: "background"},
	}
	for i := 0; i < 16; i++ {
		specs = append(specs, FlowSpec{
			ID: 10 + i, Src: 2 + i, Dst: 30, Size: perSender,
			Start: burstAt, Class: 0, Tag: "fanin",
		})
	}
	Run(net, RunConfig{Specs: specs, Duration: horizon})
	for i := 2; i <= 17; i++ {
		p := net.Hosts[i].Port()
		if p.ClassPausedTime(0) > 0 || p.PortPausedTime() > 0 {
			return false
		}
	}
	return true
}
