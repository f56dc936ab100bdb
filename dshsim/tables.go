package dshsim

import (
	"fmt"
	"io"

	"dsh/units"
)

// The text tables dshbench prints, one per family: each takes the rows
// RunFamily returns for its family (see familyTable).

func fig4Table(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-10s %5s %10s %8s %14s %12s %9s\n",
		"chip", "year", "capacity", "buffer", "buffer/capac.", "headroom", "fraction")
	for _, r := range rows.([]Fig4Row) {
		fmt.Fprintf(w, "%-10s %5d %10v %8v %14v %12v %8.1f%%\n",
			r.Chip, r.Year, r.Capacity, r.Buffer, r.BufferPerCapacity,
			r.HeadroomSize, 100*r.HeadroomFraction)
	}
}

func fig5Table(w io.Writer, rows any) {
	rs := rows.([]Fig5Row)
	fmt.Fprintf(w, "%-10s %12s %10s %12s %10s\n", "buffer", "avg FCT", "vs widest", "p99 FCT", "pauses")
	base := rs[len(rs)-1].AvgFCT
	for _, r := range rs {
		fmt.Fprintf(w, "%-10v %12v %+9.1f%% %12v %10d\n", r.Buffer, r.AvgFCT,
			100*(float64(r.AvgFCT)/float64(base)-1), r.P99FCT, r.PauseFrames)
	}
}

func fig6Table(w io.Writer, rows any) {
	s := rows.(Fig6Summary)
	fmt.Fprintf(w, "headroom-utilization local maxima: %d samples\n", s.Samples)
	for _, q := range s.Quantiles {
		fmt.Fprintf(w, "  p%-4g %6.2f%%\n", q.P*100, 100*q.Utilization)
	}
}

func fig11Table(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-12s %14s %14s\n", "burst(%buf)", "SIH paused", "DSH paused")
	for _, r := range rows.([]Fig11Row) {
		fmt.Fprintf(w, "%-12d %14v %14v\n", r.BurstPct, r.SIHPaused, r.DSHPaused)
	}
}

func fig12Table(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-6s %-9s %10s %12s %12s\n", "scheme", "cc", "deadlocks", "median onset", "p90 onset")
	for _, r := range rows.([]Fig12Row) {
		med, p90 := "-", "-"
		if len(r.Onsets) > 0 {
			vals := make([]float64, len(r.Onsets))
			for i, o := range r.Onsets {
				vals[i] = o.Milliseconds()
			}
			cdf := NewCDF(vals)
			med = fmt.Sprintf("%.2fms", cdf.Quantile(0.5))
			p90 = fmt.Sprintf("%.2fms", cdf.Quantile(0.9))
		}
		fmt.Fprintf(w, "%-6s %-9s %6d/%-3d %12s %12s\n",
			r.Scheme, r.Transport, r.Deadlocks, r.Runs, med, p90)
	}
}

func fig13Table(w io.Writer, rows any) {
	rs := rows.([]Fig13Row)
	for _, r := range rs {
		fmt.Fprintf(w, "%s/%s: burst at %v, min F0 goodput after burst %v\n",
			r.Scheme, r.Transport, r.BurstAt, r.MinDuringBurst())
	}
	fmt.Fprintln(w, "\nF0 goodput series (Gbps per 10us bin, from 100us before burst):")
	for _, r := range rs {
		start := int(r.BurstAt/r.Bin) - 10
		if start < 0 {
			start = 0
		}
		fmt.Fprintf(w, "%3s/%-9s", r.Scheme, r.Transport)
		for i := start; i < len(r.Series) && i < start+60; i += 4 {
			fmt.Fprintf(w, " %5.1f", float64(r.Series[i])/float64(units.Gbps))
		}
		fmt.Fprintln(w)
	}
}

func fig14Table(w io.Writer, rows any) {
	for _, row := range rows.([]Fig14Row) {
		fmt.Fprintf(w, "[%s]\n", row.Transport)
		fmt.Fprintf(w, "  %-8s %12s %12s %12s %12s\n", "bg load", "bg DSH/SIH", "fanin D/S", "SIH bg FCT", "DSH bg FCT")
		for _, p := range row.Points {
			fmt.Fprintf(w, "  %-8.1f %12.3f %12.3f %12v %12v\n",
				p.BgLoad, p.NormBg(), p.NormFanin(), p.SIHBg, p.DSHBg)
		}
	}
}

func fig15Table(w io.Writer, rows any) {
	for _, row := range rows.([]Fig15Row) {
		fmt.Fprintf(w, "[%s on %s]\n", row.Name, row.Topology)
		fmt.Fprintf(w, "  %-8s %12s %12s\n", "bg load", "bg DSH/SIH", "fanin D/S")
		for _, p := range row.Points {
			fmt.Fprintf(w, "  %-8.1f %12.3f %12.3f\n", p.BgLoad, p.NormBg(), p.NormFanin())
		}
	}
}

func fig10Table(w io.Writer, rows any) {
	for _, series := range rows.([]Fig10Series) {
		fmt.Fprintf(w, "[%s, R=%.1f] pause at %.0f normalized bytes\n", series.Scheme, series.R, series.PauseAt)
		fmt.Fprintf(w, "  %-12s %12s %12s %12s %12s\n", "t(bytes)", "T(t)", "Xoff(t)", "q_congested", "q_burst")
		pts := series.Points
		stride := len(pts) / 8
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < len(pts); i += stride {
			p := pts[i]
			fmt.Fprintf(w, "  %-12.0f %12.0f %12.0f %12.0f %12.0f\n", p.T, p.Threshold, p.XOff, p.QCongested, p.QBurst)
		}
	}
}

func ablationTable(w io.Writer, rows any) {
	res := rows.(AblationResult)
	fmt.Fprintln(w, "insurance headroom (losslessness under shared-buffer exhaustion):")
	fmt.Fprintf(w, "  %-12s %8s %8s %10s\n", "variant", "drops", "pauses", "completed")
	for _, r := range res.Insurance {
		fmt.Fprintf(w, "  %-12s %8d %8d %10d\n", r.Variant, r.Drops, r.PauseFrames, r.Completed)
	}
	fmt.Fprintln(w, "\nDT alpha sweep (largest pause-free burst, % of buffer):")
	fmt.Fprintf(w, "  %-8s %10s %10s\n", "alpha", "SIH", "DSH")
	for _, r := range res.Alpha {
		fmt.Fprintf(w, "  %-8.4f %9d%% %9d%%\n", r.Alpha, r.SIHMaxPct, r.DSHMaxPct)
	}
	fmt.Fprintln(w, "\nqueue-count scalability (largest pause-free burst, % of buffer):")
	fmt.Fprintf(w, "  %-8s %10s %10s\n", "classes", "SIH", "DSH")
	for _, r := range res.QueueCount {
		fmt.Fprintf(w, "  %-8d %9d%% %9d%%\n", r.Classes, r.SIHMaxPct, r.DSHMaxPct)
	}
}

func faultsTable(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-9s %-6s %12s %12s %12s %6s %9s %9s %8s %10s\n",
		"fault", "scheme", "avg bg FCT", "p99 bg FCT", "avg fanin", "unfin", "drops", "wiredrops", "deadlock", "onset")
	for _, r := range rows.([]FaultsRow) {
		onset := "-"
		if r.Onset >= 0 {
			onset = fmt.Sprintf("%.2fms", r.Onset.Milliseconds())
		}
		fmt.Fprintf(w, "%-9s %-6s %12v %12v %12v %6d %9d %9d %8v %10s\n",
			r.Fault, r.Scheme, r.AvgBgFCT, r.P99BgFCT, r.AvgFaninFCT,
			r.Unfinished, r.Drops, r.WireDrops, r.Deadlocked, onset)
	}
}

func scaleTable(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-9s %-8s %10s %6s | %12s %12s %12s | %12s %12s %12s\n",
		"target", "fidelity", "flows", "unfin",
		"SIH p50", "SIH p99", "SIH paused", "DSH p50", "DSH p99", "DSH paused")
	for _, r := range rows.([]ScaleRow) {
		fmt.Fprintf(w, "%-9d %-8s %10d %6d | %12v %12v %12v | %12v %12v %12v\n",
			r.TargetFlows, r.Fidelity, r.Flows, r.SIH.Unfinished+r.DSH.Unfinished,
			r.SIH.P50, r.SIH.P99, r.SIH.PausedTime,
			r.DSH.P50, r.DSH.P99, r.DSH.PausedTime)
	}
}

func theoremTable(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %8s\n",
		"R", "DSH bound", "SIH bound", "DSH fluid", "SIH fluid", "gain")
	for _, r := range rows.([]TheoremRow) {
		fmt.Fprintf(w, "%-6.1f %12v %12v %12v %12v %7.2fx\n",
			r.R, r.DSHBound, r.SIHBound, r.DSHFluid, r.SIHFluid, r.Gain)
	}
}
