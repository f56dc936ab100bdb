package dshsim

import (
	"math"
	"sync/atomic"
)

// SweepStats accumulates engine counters across the runs of a sweep. The
// fields are atomics because sweep jobs run on worker goroutines; the
// aggregate is deterministic regardless (a sum and a max commute). benchkit
// threads one through ExpOptions.Stats to surface events-processed and
// heap-high-water numbers per kernel.
type SweepStats struct {
	events  atomic.Uint64
	epochs  atomic.Uint64
	heapMax atomic.Int64
	// lpBalance holds the worst (largest) per-run LP balance ratio across
	// noted runs, as math.Float64bits — non-negative floats compare
	// correctly as uint64s, so the CAS-max stays branch-free.
	lpBalance atomic.Uint64
}

// note folds one run's counters in; a nil receiver is a no-op so harness
// code can pass the option through unconditionally.
func (st *SweepStats) note(res *Result) {
	if st == nil {
		return
	}
	st.events.Add(res.Events)
	st.epochs.Add(res.Epochs)
	for {
		cur := st.heapMax.Load()
		if int64(res.HeapMax) <= cur || st.heapMax.CompareAndSwap(cur, int64(res.HeapMax)) {
			break
		}
	}
	bits := math.Float64bits(res.LPBalance)
	for {
		cur := st.lpBalance.Load()
		if bits <= cur || st.lpBalance.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// Events returns the total simulator events processed across noted runs.
func (st *SweepStats) Events() uint64 { return st.events.Load() }

// Epochs returns the total partitioned-engine barrier epochs across noted
// runs (0 when every run used the classic engine).
func (st *SweepStats) Epochs() uint64 { return st.epochs.Load() }

// LPBalance returns the worst per-run LP balance ratio (busiest LP's
// processed events over the per-LP mean) across noted runs; 0 when no run
// used the partitioned engine.
func (st *SweepStats) LPBalance() float64 {
	return math.Float64frombits(st.lpBalance.Load())
}

// HeapMax returns the largest event-heap high-water mark across noted runs.
func (st *SweepStats) HeapMax() int { return int(st.heapMax.Load()) }
