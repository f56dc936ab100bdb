package dshsim

import (
	"dsh/internal/analysis"
	"dsh/units"
)

// Fig4Row is one chip generation of Fig. 4.
type Fig4Row struct {
	Chip              string
	Year              int
	Capacity          units.BitRate
	Buffer            units.ByteSize
	BufferPerCapacity units.Time
	HeadroomSize      units.ByteSize
	HeadroomFraction  float64
}

// Fig4 computes the Broadcom buffer-trend table: buffer per unit of
// switching capacity and the Eq. 1/Eq. 3 worst-case headroom fraction per
// chip generation.
func Fig4(ExpOptions) []Fig4Row {
	var rows []Fig4Row
	for _, c := range analysis.BroadcomChips() {
		rows = append(rows, Fig4Row{
			Chip:              c.Name,
			Year:              c.Year,
			Capacity:          c.Capacity,
			Buffer:            c.Buffer,
			BufferPerCapacity: c.BufferPerCapacity(),
			HeadroomSize:      c.HeadroomSize(),
			HeadroomFraction:  c.HeadroomFraction(),
		})
	}
	return rows
}

// TheoremRow compares the closed-form burst-absorption bounds of
// Theorems 1 and 2 against the fluid-model integration for one burst
// intensity.
type TheoremRow struct {
	R        float64
	DSHBound units.Time
	SIHBound units.Time
	DSHFluid units.Time
	SIHFluid units.Time
	Gain     float64
}

// tomahawkBurst is the §IV-C analysis configuration at burst intensity r:
// the Tomahawk switch (16 MB, 32 ports, 7 accounted queues, η = 56840 B,
// α = 1/16) with N = 2 congested and M = 16 bursting queues.
func tomahawkBurst(r float64) analysis.BurstScenario {
	return analysis.BurstScenario{
		Alpha:         1.0 / 16.0,
		N:             2,
		M:             16,
		R:             r,
		Buffer:        16 * units.MB,
		Eta:           56840,
		Ports:         32,
		QueuesPerPort: 7,
		LineRate:      100 * units.Gbps,
	}
}

// Theorem evaluates the §IV-C analysis on the Tomahawk configuration
// (tomahawkBurst) across burst intensities.
func Theorem(opt ExpOptions) []TheoremRow {
	rs := []float64{1.5, 2, 4, 8, 16, 32}
	if opt.Full {
		rs = []float64{1.2, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48}
	}
	var rows []TheoremRow
	for _, r := range rs {
		s := tomahawkBurst(r)
		dshBound, err := s.DSHMaxBurstDuration()
		if err != nil {
			panic(err)
		}
		sihBound, err := s.SIHMaxBurstDuration()
		if err != nil {
			panic(err)
		}
		gain, _ := s.Gain()
		rows = append(rows, TheoremRow{
			R:        r,
			DSHBound: dshBound,
			SIHBound: sihBound,
			DSHFluid: s.FluidPauseTime("DSH"),
			SIHFluid: s.FluidPauseTime("SIH"),
			Gain:     gain,
		})
	}
	return rows
}

// Fig10Series is the queue/threshold evolution of Fig. 10 for one scheme
// and regime.
type Fig10Series struct {
	Scheme string
	R      float64
	Points []analysis.FluidPoint
	// PauseAt is the normalized crossing time (bytes at line rate).
	PauseAt float64
}

// Fig10 integrates the §IV-C fluid model for both schemes in both regimes
// (slow: congested queues follow the threshold; fast: they drain at line
// rate), producing the evolutions plotted in Fig. 10.
func Fig10(ExpOptions) []Fig10Series {
	var out []Fig10Series
	for _, r := range []float64{1.8, 16} {
		for _, scheme := range []string{"DSH", "SIH"} {
			sc := tomahawkBurst(r)
			step := float64(sc.Buffer) / 2e6
			pts, crossing := sc.FluidTrace(scheme, step, 4*float64(sc.Buffer))
			out = append(out, Fig10Series{Scheme: scheme, R: r, Points: pts, PauseAt: crossing})
		}
	}
	return out
}
