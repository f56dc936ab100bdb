// Package workload generates the traffic the paper evaluates on: empirical
// flow-size distributions (web search, data mining, cache, Hadoop), open-
// loop Poisson flow arrivals at a target load, and many-to-one incast
// events.
//
// Generators produce a complete, deterministic flow schedule from a seed
// before the simulation starts, so competing schemes (SIH vs DSH) are
// measured against byte-identical workloads.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dsh/internal/packet"
	"dsh/units"
)

// point is one knot of an empirical CDF.
type point struct {
	size units.ByteSize
	cdf  float64
}

// SizeDist samples flow sizes by inverse-transform over a piecewise-linear
// empirical CDF.
type SizeDist struct {
	name   string
	points []point
	mean   float64
}

// NewSizeDist builds a distribution from (size, cumulative probability)
// knots. Knots must be strictly increasing in both coordinates, start at
// cdf ≥ 0 and end at exactly 1.
func NewSizeDist(name string, sizes []units.ByteSize, cdfs []float64) (*SizeDist, error) {
	if len(sizes) != len(cdfs) || len(sizes) < 2 {
		return nil, fmt.Errorf("workload: need ≥2 matching knots, got %d/%d", len(sizes), len(cdfs))
	}
	d := &SizeDist{name: name}
	for i := range sizes {
		if i > 0 && (sizes[i] <= sizes[i-1] || cdfs[i] <= cdfs[i-1]) {
			return nil, fmt.Errorf("workload: knots must strictly increase at %d", i)
		}
		if cdfs[i] < 0 || cdfs[i] > 1 {
			return nil, fmt.Errorf("workload: cdf %v out of range", cdfs[i])
		}
		d.points = append(d.points, point{sizes[i], cdfs[i]})
	}
	if last := cdfs[len(cdfs)-1]; last != 1 {
		return nil, fmt.Errorf("workload: cdf must end at 1, got %v", last)
	}
	// Mean via trapezoids: each CDF segment contributes p·(s0+s1)/2.
	prev := point{size: sizes[0], cdf: 0}
	for _, pt := range d.points {
		d.mean += (pt.cdf - prev.cdf) * float64(pt.size+prev.size) / 2
		prev = pt
	}
	return d, nil
}

func mustDist(name string, sizes []units.ByteSize, cdfs []float64) *SizeDist {
	d, err := NewSizeDist(name, sizes, cdfs)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the distribution's name.
func (d *SizeDist) Name() string { return d.name }

// Mean returns the expected flow size.
func (d *SizeDist) Mean() units.ByteSize { return units.ByteSize(d.mean) }

// Sample draws one flow size (≥1 byte).
func (d *SizeDist) Sample(rng *rand.Rand) units.ByteSize {
	u := rng.Float64()
	i := sort.Search(len(d.points), func(i int) bool { return d.points[i].cdf >= u })
	if i == 0 {
		s := float64(d.points[0].size) * u / d.points[0].cdf
		return max(1, units.ByteSize(s))
	}
	lo, hi := d.points[i-1], d.points[i]
	frac := (u - lo.cdf) / (hi.cdf - lo.cdf)
	s := float64(lo.size) + frac*float64(hi.size-lo.size)
	return max(1, units.ByteSize(s))
}

// The four realistic workloads of §V-B. The knots are transcriptions of the
// published distributions used by the papers the evaluation cites
// (DCTCP web search [27], VL2 data mining [47], Facebook cache and Hadoop
// [28]); see EXPERIMENTS.md for the fidelity discussion.

// WebSearch returns the DCTCP web-search distribution (mean ≈ 1 MB,
// 30% of flows over 1 MB carrying most bytes).
func WebSearch() *SizeDist {
	return mustDist("websearch",
		[]units.ByteSize{6_000, 13_000, 19_000, 33_000, 53_000, 133_000,
			667_000, 1_467_000, 2_107_000, 2_933_000, 30_000_000},
		[]float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 1})
}

// DataMining returns the VL2 data-mining distribution: ~80% of flows under
// 10 KB with an extremely heavy tail.
func DataMining() *SizeDist {
	return mustDist("datamining",
		[]units.ByteSize{100, 180, 250, 560, 900, 1_100, 1_870, 3_160,
			10_000, 400_000, 3_160_000, 30_000_000, 100_000_000, 1_000_000_000},
		[]float64{0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.995, 1})
}

// Cache returns the Facebook cache-follower distribution: dominated by
// sub-KB objects with occasional MB transfers.
func Cache() *SizeDist {
	return mustDist("cache",
		[]units.ByteSize{64, 100, 200, 300, 400, 575, 1_870, 3_160,
			10_000, 100_000, 1_000_000, 10_000_000},
		[]float64{0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97, 1})
}

// Hadoop returns the Facebook Hadoop distribution: small shuffle chunks
// with a moderate tail.
func Hadoop() *SizeDist {
	return mustDist("hadoop",
		[]units.ByteSize{130, 250, 300, 500, 700, 1_000, 2_000, 10_000,
			100_000, 1_000_000, 10_000_000, 100_000_000},
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.995, 1})
}

// ByName resolves a workload by its lowercase name.
func ByName(name string) (*SizeDist, error) {
	switch name {
	case "websearch":
		return WebSearch(), nil
	case "datamining":
		return DataMining(), nil
	case "cache":
		return Cache(), nil
	case "hadoop":
		return Hadoop(), nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", name)
	}
}

// FlowSpec is one scheduled flow.
type FlowSpec struct {
	ID    int
	Src   int
	Dst   int
	Size  units.ByteSize
	Start units.Time
	Class packet.Class
	Tag   string
}

// Background generates one-to-one Poisson traffic: random sender/receiver
// pairs, sizes from dist, exponential interarrivals targeting `load` of the
// aggregate host capacity over [0, duration).
type Background struct {
	// Hosts are candidate endpoints.
	Hosts []int
	// Dist samples flow sizes.
	Dist *SizeDist
	// Load is the offered fraction of aggregate host bandwidth (0,1].
	Load float64
	// HostRate is the per-host link rate.
	HostRate units.BitRate
	// Classes are the priority classes flows are spread over.
	Classes []packet.Class
	// Tag labels generated flows (default "background").
	Tag string
}

// Generate produces the schedule. IDs start at firstID.
func (b Background) Generate(rng *rand.Rand, duration units.Time, firstID int) []FlowSpec {
	if b.Load <= 0 || len(b.Hosts) < 2 || b.Dist == nil {
		panic("workload: Background needs Hosts, Dist and positive Load")
	}
	tag := b.Tag
	if tag == "" {
		tag = "background"
	}
	bytesPerSec := b.Load * float64(len(b.Hosts)) * float64(b.HostRate) / 8
	flowsPerSec := bytesPerSec / float64(b.Dist.Mean())
	meanGapPs := float64(units.Second) / flowsPerSec

	specs := make([]FlowSpec, 0, expectedArrivals(duration, meanGapPs))
	id := firstID
	for t := nextExp(rng, meanGapPs); t < float64(duration); t += nextExp(rng, meanGapPs) {
		src := b.Hosts[rng.Intn(len(b.Hosts))]
		dst := b.Hosts[rng.Intn(len(b.Hosts))]
		for dst == src {
			dst = b.Hosts[rng.Intn(len(b.Hosts))]
		}
		cls := packet.Class(0)
		if len(b.Classes) > 0 {
			cls = b.Classes[rng.Intn(len(b.Classes))]
		}
		specs = append(specs, FlowSpec{
			ID: id, Src: src, Dst: dst,
			Size:  b.Dist.Sample(rng),
			Start: units.Time(t),
			Class: cls,
			Tag:   tag,
		})
		id++
	}
	return specs
}

// Incast generates many-to-one bursts: at Poisson event times, FanIn
// senders (from racks other than the receiver's) each send FlowSize to one
// receiver simultaneously.
type Incast struct {
	// Racks groups host IDs; senders are drawn from racks other than the
	// receiver's. With a single rack, senders are any host but the receiver.
	Racks [][]int
	// FanIn is the number of simultaneous senders per event.
	FanIn int
	// FlowSize is each sender's transfer (64 KB in the paper).
	FlowSize units.ByteSize
	// Load is the offered fraction of aggregate host bandwidth.
	Load float64
	// HostRate is the per-host link rate.
	HostRate units.BitRate
	// Class is the single traffic class all fan-in flows share.
	Class packet.Class
	// Tag labels generated flows (default "fanin").
	Tag string
}

// Generate produces the schedule. IDs start at firstID.
func (ic Incast) Generate(rng *rand.Rand, duration units.Time, firstID int) []FlowSpec {
	if ic.Load <= 0 || ic.FanIn <= 0 || len(ic.Racks) == 0 {
		panic("workload: Incast needs Racks, FanIn and positive Load")
	}
	tag := ic.Tag
	if tag == "" {
		tag = "fanin"
	}
	var hosts int
	for _, r := range ic.Racks {
		hosts += len(r)
	}
	bytesPerSec := ic.Load * float64(hosts) * float64(ic.HostRate) / 8
	eventBytes := float64(ic.FanIn) * float64(ic.FlowSize)
	eventsPerSec := bytesPerSec / eventBytes
	meanGapPs := float64(units.Second) / eventsPerSec

	specs := make([]FlowSpec, 0, ic.FanIn*expectedArrivals(duration, meanGapPs))
	var pool []int // sender-pool buffer, refilled for every event
	id := firstID
	for t := nextExp(rng, meanGapPs); t < float64(duration); t += nextExp(rng, meanGapPs) {
		rack := rng.Intn(len(ic.Racks))
		recvRack := ic.Racks[rack]
		dst := recvRack[rng.Intn(len(recvRack))]
		pool = ic.pickSenders(rng, pool[:0], rack, dst)
		for _, src := range pool[:ic.FanIn] {
			specs = append(specs, FlowSpec{
				ID: id, Src: src, Dst: dst,
				Size:  ic.FlowSize,
				Start: units.Time(t),
				Class: ic.Class,
				Tag:   tag,
			})
			id++
		}
	}
	return specs
}

// pickSenders fills pool with every candidate sender and shuffles it; the
// first FanIn entries are the event's senders.
func (ic Incast) pickSenders(rng *rand.Rand, pool []int, recvRack, dst int) []int {
	if len(ic.Racks) > 1 {
		for r, hs := range ic.Racks {
			if r != recvRack {
				pool = append(pool, hs...)
			}
		}
	} else {
		for _, h := range ic.Racks[0] {
			if h != dst {
				pool = append(pool, h)
			}
		}
	}
	if len(pool) < ic.FanIn {
		panic(fmt.Sprintf("workload: fan-in %d exceeds sender pool %d", ic.FanIn, len(pool)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// expectedArrivals sizes a Poisson schedule's slice: the mean arrival count
// over duration plus four standard deviations (√mean), so it almost never
// has to grow.
func expectedArrivals(duration units.Time, meanGapPs float64) int {
	mean := float64(duration) / meanGapPs
	if mean <= 0 {
		return 0
	}
	return int(mean + 4*math.Sqrt(mean) + 1)
}

// nextExp draws an exponential gap with the given mean (in picoseconds).
func nextExp(rng *rand.Rand, meanPs float64) float64 {
	return -meanPs * math.Log(1-rng.Float64())
}
