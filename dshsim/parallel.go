package dshsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// This file is the sweep executor: every experiment harness submits its
// independent (scheme × transport × load/burst × run) points as Jobs and
// collects the results in submission order. A dshsim.Run simulation is a
// single-goroutine state machine that owns its simulator, topology, RNGs,
// and metrics, so independent runs can execute on any worker in any order
// without perturbing each other; determinism is preserved because job
// seeds are derived from (experiment, point, run) — see deriveSeed — never
// from execution order or wall-clock time.

// Job is one independent unit of work in a sweep.
type Job struct {
	// Name identifies the job in progress reports and failure messages,
	// e.g. "fig12 DSH/dcqcn run 7".
	Name string
	// Run executes the job and returns its result. A panic inside Run is
	// captured by RunAll and reported as the job's Err; it does not abort
	// the other jobs.
	Run func() (any, error)
}

// JobResult is the outcome of one Job.
type JobResult struct {
	// Index is the job's position in the slice passed to RunAll; results
	// are returned in this order regardless of completion order.
	Index int
	// Name echoes Job.Name.
	Name string
	// Value is whatever Job.Run returned (nil on error).
	Value any
	// Err is Run's error, or a wrapped panic (with stack) if Run panicked.
	Err error
	// Elapsed is the job's wall-clock duration.
	Elapsed time.Duration
}

// SweepProgress describes one completed job of a running sweep; it is
// delivered to progress callbacks as jobs finish.
type SweepProgress struct {
	// Experiment is the sweep's name ("fig12", …); empty when RunAll is
	// used directly.
	Experiment string
	// Job is the completed job's name.
	Job string
	// Done and Total count completed and submitted jobs.
	Done, Total int
	// Failed reports whether the completed job returned an error.
	Failed bool
	// Elapsed is the wall-clock time since the sweep started; Remaining is
	// a crude ETA extrapolated from the mean per-job time so far.
	Elapsed, Remaining time.Duration
}

// RunAll executes the jobs on a pool of workers and returns their results
// in submission order. workers <= 0 means runtime.GOMAXPROCS(0); workers
// == 1 runs the jobs sequentially on the calling goroutine, reproducing a
// plain serial loop exactly. A job that panics fails with a captured
// stack instead of killing the sweep. onProgress, when non-nil, is called
// once per completed job (from multiple goroutines when workers > 1, but
// never concurrently with itself).
func RunAll(jobs []Job, workers int, onProgress func(SweepProgress)) []JobResult {
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers = ResolveWorkers(workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}

	start := time.Now()
	var progressMu sync.Mutex
	done := 0
	report := func(r JobResult) {
		if onProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		elapsed := time.Since(start)
		remaining := elapsed / time.Duration(done) * time.Duration(len(jobs)-done)
		onProgress(SweepProgress{
			Job: r.Name, Done: done, Total: len(jobs), Failed: r.Err != nil,
			Elapsed: elapsed, Remaining: remaining,
		})
	}

	runOne := func(i int) {
		r := JobResult{Index: i, Name: jobs[i].Name}
		jobStart := time.Now()
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.Err = fmt.Errorf("job %q (index %d) panicked: %v\n%s",
						r.Name, i, p, debug.Stack())
					r.Value = nil
				}
			}()
			r.Value, r.Err = jobs[i].Run()
		}()
		r.Elapsed = time.Since(jobStart)
		results[i] = r
		report(r)
	}

	if workers == 1 {
		for i := range jobs {
			runOne(i)
		}
		return results
	}

	// Workers pull indices from a channel; each result lands in its own
	// slot of results, so the only cross-goroutine coordination is the
	// index channel and the WaitGroup (which orders the writes before the
	// caller's reads).
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// ResolveWorkers resolves a configured worker count to the effective pool
// size: non-positive values mean runtime.GOMAXPROCS(0), i.e. all cores. It
// is the single resolution rule for every worker knob (sweep executor,
// ExpOptions, the dshbench CLI).
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// workers resolves the effective sweep worker count.
func (o ExpOptions) workers() int { return ResolveWorkers(o.Workers) }

// sweep runs n typed jobs through RunAll under the experiment's options:
// opt.Workers sets the pool size and opt.Progress receives per-job
// completions tagged with the experiment name. name(i) labels job i; run(i)
// computes its result. Any failed job (error or captured panic) makes
// sweep panic after all jobs have finished, preserving the pre-executor
// behaviour where experiment harnesses panic on impossible outcomes.
func sweep[T any](opt ExpOptions, experiment string, n int, name func(i int) string, run func(i int) T) []T {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: name(i), Run: func() (any, error) { return run(i), nil }}
	}
	var progress func(SweepProgress)
	if opt.Progress != nil {
		progress = func(p SweepProgress) {
			p.Experiment = experiment
			opt.Progress(p)
		}
	}
	results := RunAll(jobs, opt.workers(), progress)
	out := make([]T, n)
	for i, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("dshsim: %s: %v", experiment, r.Err))
		}
		out[i] = r.Value.(T)
	}
	return out
}

// pairedSchemes is the order a paired sweep runs its schemes in.
var pairedSchemes = [2]Scheme{SIH, DSH}

// schemeSweep runs every point under both schemes as one sweep — point
// major, SIH first — and returns each point's results indexed like
// pairedSchemes. name labels a job; run computes it.
func schemeSweep[T any](opt ExpOptions, experiment string, points int,
	name func(pt int, scheme Scheme) string, run func(pt int, scheme Scheme) T) [][2]T {
	flat := sweep(opt, experiment, 2*points,
		func(i int) string { return name(i/2, pairedSchemes[i%2]) },
		func(i int) T { return run(i/2, pairedSchemes[i%2]) })
	out := make([][2]T, points)
	for i, v := range flat {
		out[i/2][i%2] = v
	}
	return out
}
