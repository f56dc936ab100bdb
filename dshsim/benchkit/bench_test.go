package benchkit

import "testing"

// `go test -bench` entry points for the kernel suite; the same functions
// back the programmatic JSON collection (see report.go).

func BenchmarkEventEngine(b *testing.B)     { EventEngine(b) }
func BenchmarkForwarding(b *testing.B)      { Forwarding(b) }
func BenchmarkForwardingTrace(b *testing.B) { ForwardingTrace(b) }
func BenchmarkIncast(b *testing.B)          { Incast(b) }
func BenchmarkFig11(b *testing.B)           { Fig11(b) }
func BenchmarkFig11Point(b *testing.B)      { Fig11Point(b) }
func BenchmarkFig11PointLP4(b *testing.B)   { Fig11PointLP4(b) }

func BenchmarkScalePointFlow(b *testing.B) { ScalePointFlow(b) }
func BenchmarkFlowsimRun(b *testing.B)     { FlowsimRun(b) }

// The packet twin replays the same 10⁵ flows packet by packet (~100M
// events per op), so it is excluded from `make bench-smoke`'s -short pass;
// bench-json always runs it — the fidelity_speedup gate needs the pair.
func BenchmarkScalePointPacket(b *testing.B) {
	if testing.Short() {
		b.Skip("10⁵-flow packet-fidelity point is minutes of work; skipped under -short")
	}
	ScalePointPacket(b)
}
