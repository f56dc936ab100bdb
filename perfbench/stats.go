package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty sample. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// sampleCap bounds a series. Past it a series keeps a uniform random sample
// of everything added (reservoir sampling), so a run's memory does not grow
// with its throughput.
const sampleCap = 1 << 14

// series is a bounded uniform sample of a stream of measurements.
type series struct {
	xs   []float64
	seen int
	rng  *rand.Rand
}

func (s *series) add(x float64) {
	s.seen++
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	if j := s.rng.Intn(s.seen); j < sampleCap {
		s.xs[j] = x
	}
}

// merge appends another series' sample; both should stand for streams of
// similar length, as the closed-loop clients' are.
func (s *series) merge(o *series) {
	s.xs = append(s.xs, o.xs...)
	s.seen += o.seen
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time, all threads included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stopwatch pairs a wall-clock and a CPU reading.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// elapsed returns wall and CPU seconds since the watch started.
func (w stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), cpuSeconds() - w.cpu
}

// totalAllocMB is the cumulative heap allocation of the process in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal ticks
// and the total over every state.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// guest and guest_nice (fields 9, 10) are already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of machine CPU time the hypervisor stole
// while the benchmark ran: a run-quality figure, since steal inflates every
// timing without any change in the program.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// provenance describes where and on what code a report was measured.
type provenance struct {
	NProc      int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
	Revision   string
}

func readProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Revision += "+dirty"
				}
			}
		}
	}
	return p
}
