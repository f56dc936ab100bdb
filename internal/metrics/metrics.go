// Package metrics collects the measurements the paper reports: flow
// completion times (means and percentiles per traffic category),
// headroom-utilization local maxima (Fig. 6), per-flow throughput time
// series (Fig. 13), and deadlock onset detection over the pause wait-for
// graph (Fig. 12).
package metrics

import (
	"fmt"
	"sort"

	"dsh/internal/transport"
	"dsh/units"
)

// FCTRecord is one completed flow.
type FCTRecord struct {
	ID   int
	Size units.ByteSize
	FCT  units.Time
	Tag  string
}

// FCTCollector accumulates completions, grouped by tag. Tags are interned
// to small integer IDs: the per-completion Record is an indexed append with
// no map lookup when the flow carries its TagID (see transport.Flow.TagID),
// and record slices can be preallocated from workload flow counts.
type FCTCollector struct {
	ids   map[string]int32 // tag -> index into tags/recs, from 0
	tags  []string
	recs  [][]FCTRecord
	total int
}

// NewFCTCollector returns an empty collector.
func NewFCTCollector() *FCTCollector {
	return &FCTCollector{ids: make(map[string]int32)}
}

// Intern maps a tag to its stable integer ID (allocating one on first use).
// IDs returned are ≥1 so that a zero transport.Flow.TagID always means
// "uninterned". Experiment setup interns every workload tag once and stamps
// flows with the result.
func (c *FCTCollector) Intern(tag string) int32 {
	if id, ok := c.ids[tag]; ok {
		return id + 1
	}
	id := int32(len(c.tags))
	c.ids[tag] = id
	c.tags = append(c.tags, tag)
	c.recs = append(c.recs, nil)
	return id + 1
}

// Reserve preallocates capacity for n completions of a tag.
func (c *FCTCollector) Reserve(tag string, n int) {
	id := c.Intern(tag) - 1
	if cap(c.recs[id])-len(c.recs[id]) < n {
		grown := make([]FCTRecord, len(c.recs[id]), len(c.recs[id])+n)
		copy(grown, c.recs[id])
		c.recs[id] = grown
	}
}

// Record ingests a finished flow; it panics on unfinished flows, which
// indicates harness misuse.
func (c *FCTCollector) Record(f *transport.Flow) {
	if !f.Done() {
		panic(fmt.Sprintf("metrics: recording unfinished flow %d", f.ID))
	}
	id := f.TagID
	if id == 0 {
		id = c.Intern(f.Tag)
	}
	i := id - 1
	c.recs[i] = append(c.recs[i], FCTRecord{ID: f.ID, Size: f.Size, FCT: f.FCT(), Tag: c.tags[i]})
	c.total++
}

// Absorb appends every record from other into this collector, interning
// other's tags as needed. The partitioned run path keeps one collector per
// logical process (completions land on LP workers) and merges them in LP
// index order afterwards; per-tag record order then differs from a classic
// run's completion order, which no consumer depends on (aggregation is by
// ID map, mean, or sorted percentile).
func (c *FCTCollector) Absorb(other *FCTCollector) {
	for i, tag := range other.tags {
		if len(other.recs[i]) == 0 {
			continue
		}
		id := c.Intern(tag) - 1
		c.recs[id] = append(c.recs[id], other.recs[i]...)
		c.total += len(other.recs[i])
	}
}

// Count returns completions for a tag ("" sums all tags).
func (c *FCTCollector) Count(tag string) int {
	if tag == "" {
		return c.total
	}
	if id, ok := c.ids[tag]; ok {
		return len(c.recs[id])
	}
	return 0
}

// Tags returns the tags with at least one completion, sorted.
func (c *FCTCollector) Tags() []string {
	tags := make([]string, 0, len(c.tags))
	for i, t := range c.tags {
		if len(c.recs[i]) > 0 {
			tags = append(tags, t)
		}
	}
	sort.Strings(tags)
	return tags
}

// Avg returns the mean FCT for a tag (0 when empty).
func (c *FCTCollector) Avg(tag string) units.Time {
	recs := c.Records(tag)
	if len(recs) == 0 {
		return 0
	}
	var sum units.Time
	for _, r := range recs {
		sum += r.FCT
	}
	return sum / units.Time(len(recs))
}

// Percentile returns the p-quantile (0<p≤1) FCT for a tag.
func (c *FCTCollector) Percentile(tag string, p float64) units.Time {
	recs := c.Records(tag)
	if len(recs) == 0 {
		return 0
	}
	fcts := make([]units.Time, len(recs))
	for i, r := range recs {
		fcts[i] = r.FCT
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	return quantileSorted(fcts, p)
}

// Records returns the raw records for a tag.
func (c *FCTCollector) Records(tag string) []FCTRecord {
	if id, ok := c.ids[tag]; ok {
		return c.recs[id]
	}
	return nil
}

// quantileSorted picks the nearest-rank quantile from sorted values.
func quantileSorted(v []units.Time, p float64) units.Time {
	if len(v) == 0 {
		return 0
	}
	if p <= 0 {
		return v[0]
	}
	if p >= 1 {
		return v[len(v)-1]
	}
	idx := int(p*float64(len(v))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v) {
		idx = len(v) - 1
	}
	return v[idx]
}

// CDF summarises a sample for plotting.
type CDF struct {
	values []float64
}

// NewCDF copies and sorts the sample.
func NewCDF(values []float64) *CDF {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return &CDF{values: v}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.values) }

// Quantile returns the p-quantile (nearest rank).
func (c *CDF) Quantile(p float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	if p <= 0 {
		return c.values[0]
	}
	if p >= 1 {
		return c.values[len(c.values)-1]
	}
	idx := int(p*float64(len(c.values))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.values) {
		idx = len(c.values) - 1
	}
	return c.values[idx]
}

// At returns the empirical CDF value at x: P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(c.values, x)
	// include equal values
	for n < len(c.values) && c.values[n] <= x {
		n++
	}
	return float64(n) / float64(len(c.values))
}

// PeakTracker extracts local maxima from a sampled signal: each time the
// signal falls after rising, the peak is committed. The paper uses this on
// headroom occupancy to measure "actual required headroom" (Fig. 6).
type PeakTracker struct {
	peaks   []float64
	current float64
	rising  bool
}

// Feed ingests one sample.
func (p *PeakTracker) Feed(v float64) {
	switch {
	case v > p.current:
		p.current = v
		p.rising = true
	case v < p.current && p.rising:
		p.peaks = append(p.peaks, p.current)
		p.rising = false
		p.current = v
	default:
		p.current = v
	}
}

// Flush commits a still-rising final value.
func (p *PeakTracker) Flush() {
	if p.rising && p.current > 0 {
		p.peaks = append(p.peaks, p.current)
		p.rising = false
	}
}

// Peaks returns the committed local maxima.
func (p *PeakTracker) Peaks() []float64 { return p.peaks }

// ThroughputMeter bins received bytes into fixed windows and reports a rate
// time series (Fig. 13).
type ThroughputMeter struct {
	bin  units.Time
	bins []units.ByteSize
}

// NewThroughputMeter uses the given bin width.
func NewThroughputMeter(bin units.Time) *ThroughputMeter {
	if bin <= 0 {
		panic("metrics: non-positive bin width")
	}
	return &ThroughputMeter{bin: bin}
}

// Add records bytes delivered at the given time.
func (m *ThroughputMeter) Add(now units.Time, n units.ByteSize) {
	idx := int(now / m.bin)
	for len(m.bins) <= idx {
		m.bins = append(m.bins, 0)
	}
	m.bins[idx] += n
}

// Series returns the per-bin average rate.
func (m *ThroughputMeter) Series() []units.BitRate {
	out := make([]units.BitRate, len(m.bins))
	for i, b := range m.bins {
		out[i] = units.BitRate(float64(b.Bits()) / m.bin.Seconds())
	}
	return out
}

// Bin returns the bin width.
func (m *ThroughputMeter) Bin() units.Time { return m.bin }
