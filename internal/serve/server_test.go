package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsh/dshsim"
)

// stubResult is the deterministic payload the stub executor returns for a
// spec (real result bytes are exercised by equiv_test.go).
func stubResult(sp Spec) []byte {
	return []byte(fmt.Sprintf("{\"stub\":\"%s/%d\"}\n", sp.Family, sp.Seed))
}

// newTestServer builds a Server over a temp data dir (unless cfg pins one)
// with the version pinned, wrapped in an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Version == "" {
		cfg.Version = testVersion
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob submits raw spec JSON and decodes the response (writeError
// bodies land in jobStatus.Error, which shares the "error" JSON key).
func postJob(t *testing.T, ts *httptest.Server, body string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST /jobs: read body: %v", err)
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("POST /jobs: %v decoding %q", err, data)
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, ts *httptest.Server, key string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + key)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", key, err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("GET /jobs/%s: %v", key, err)
	}
	return st
}

// waitStatus polls a job until it reaches the wanted state; an unexpected
// failure aborts the test with the job's error.
func waitStatus(t *testing.T, ts *httptest.Server, key, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, key)
		if st.Status == want {
			return st
		}
		if st.Status == string(jobFailed) && want != string(jobFailed) {
			t.Fatalf("job %s failed: %s", key, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", key, want)
	return jobStatus{}
}

// waitClosed spins until ch is closed (white-box ordering handle for the
// drain tests: Server.stop closes strictly before workers can exit).
func waitClosed(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-ch:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("channel never closed")
}

// TestSubmitComputeCacheHit walks the happy path end to end: submit →
// queued → running (progress surfaced through the ExpOptions.Progress
// seam) → done → result bytes served, then the identical spec under a
// noisy re-encoding is answered from cache without a second execution.
func TestSubmitComputeCacheHit(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, progress func(dshsim.SweepProgress)) ([]byte, error) {
			runs.Add(1)
			if progress != nil {
				progress(dshsim.SweepProgress{Done: 3, Total: 7, Job: "point-3"})
			}
			return stubResult(sp), nil
		},
	})

	code, st := postJob(t, ts, `{"family":"fig11","seed":4}`)
	if code != http.StatusAccepted || st.Cached {
		t.Fatalf("first submit: code %d cached %v, want 202 uncached", code, st.Cached)
	}
	if want := (Spec{Family: "fig11", Seed: 4}).Normalized().Key(testVersion); st.Key != want {
		t.Fatalf("submit key %s, want %s", st.Key, want)
	}

	done := waitStatus(t, ts, st.Key, string(jobDone))
	if done.Result != "/results/"+st.Key {
		t.Fatalf("done job result link %q", done.Result)
	}
	if done.Progress == nil || done.Progress.Done != 3 || done.Progress.Total != 7 || done.Progress.LastJob != "point-3" {
		t.Fatalf("progress seam not surfaced: %+v", done.Progress)
	}

	resp, err := http.Get(ts.URL + done.Result)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, stubResult(Spec{Family: "fig11", Seed: 4})) {
		t.Fatalf("result body %q", body)
	}
	if tier := resp.Header.Get("X-DSH-Cache"); tier != TierMemory {
		t.Fatalf("result served from tier %q, want memory", tier)
	}

	// Same experiment, different encoding: key order shuffled, default
	// spelled out, family case-folded, execution knob attached.
	code, st2 := postJob(t, ts, `{"seed":4,"full":false,"family":"FIG11","workers":5}`)
	if code != http.StatusOK || !st2.Cached || st2.Key != st.Key {
		t.Fatalf("resubmit: code %d cached %v key %s, want 200 cached %s", code, st2.Cached, st2.Key, st.Key)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("executor ran %d times, want 1 (second submit must be a cache hit)", n)
	}
	if hits := s.Metrics().CacheHits(); hits < 2 { // GET /results + cached POST
		t.Fatalf("cache hits %d, want >= 2", hits)
	}
}

// TestSubmitRejects pins the 400 surface: malformed JSON, unknown family,
// misspelled field, and a scenario, a fidelity or a scheme filter on a
// family without that dimension.
func TestSubmitRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			return stubResult(sp), nil
		},
	})
	// The golden scenario addresses switch ports of another fabric (node 8
	// is a host of the faults family's): rejected before it is queued.
	golden, err := os.ReadFile("../fault/testdata/scenario.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"family":"faults","faults":` + string(golden) + `}`,
		`{"family":`,
		`{"family":"fig99"}`,
		`{"family":"fig11","sheme":"DSH"}`,
		`{"family":"fig11","faults":{"name":"x"}}`,
		`{"family":"fig11","fidelity":"flow"}`,
		`{"family":"fig11","scheme":"DSH"}`,
	} {
		code, st := postJob(t, ts, body)
		if code != http.StatusBadRequest || st.Error == "" {
			t.Errorf("POST %s: code %d error %q, want 400 with an error", body, code, st.Error)
		}
	}
	if st := getStatus(t, ts, strings.Repeat("0", 64)); st.Error == "" {
		t.Error("GET /jobs on an unknown key returned no error")
	}
}

// TestDedupeInFlight: a spec submitted while its identical twin is still
// running attaches to the live job instead of enqueueing a duplicate.
func TestDedupeInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			started <- struct{}{}
			<-release
			return stubResult(sp), nil
		},
	})

	_, st := postJob(t, ts, `{"family":"fig11"}`)
	<-started
	code, dup := postJob(t, ts, `{"family":"fig11","seed":1}`) // identical after normalization
	if code != http.StatusOK || dup.Key != st.Key || dup.Status != string(jobRunning) {
		t.Fatalf("duplicate submit: code %d key %s status %s, want 200 on the running job %s", code, dup.Key, dup.Status, st.Key)
	}
	close(release)
	waitStatus(t, ts, st.Key, string(jobDone))
	if n := s.metrics.deduped.Load(); n != 1 {
		t.Fatalf("deduped counter %d, want 1", n)
	}
	if n := s.metrics.completedOK.Load(); n != 1 {
		t.Fatalf("completed counter %d, want 1 (one execution for two submits)", n)
	}
}

// TestQueueFullRejects: the backlog bound turns into 429, not unbounded
// buffering.
func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		QueueCap: 1,
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			started <- struct{}{}
			<-release
			return stubResult(sp), nil
		},
	})
	// Let the blocked job finish and wait for the worker before the data
	// dir is removed; a result written during that removal fails cleanup.
	defer func() {
		close(release)
		if _, err := s.Drain(); err != nil {
			t.Error(err)
		}
	}()

	postJob(t, ts, `{"family":"fig11","seed":1}`)
	<-started // seed 1 occupies the worker; the queue is empty again
	if code, _ := postJob(t, ts, `{"family":"fig11","seed":2}`); code != http.StatusAccepted {
		t.Fatalf("second submit: code %d, want 202 (fills the queue)", code)
	}
	code, st := postJob(t, ts, `{"family":"fig11","seed":3}`)
	if code != http.StatusTooManyRequests || st.Error == "" {
		t.Fatalf("third submit: code %d error %q, want 429", code, st.Error)
	}
}

// TestFailedJobResubmit: a failed job is reported, then a resubmission of
// the same spec re-enqueues it instead of serving the failure forever.
func TestFailedJobResubmit(t *testing.T) {
	var attempts atomic.Int64
	_, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			if attempts.Add(1) == 1 {
				return nil, fmt.Errorf("transient executor failure")
			}
			return stubResult(sp), nil
		},
	})
	_, st := postJob(t, ts, `{"family":"fig11"}`)
	failed := waitStatus(t, ts, st.Key, string(jobFailed))
	if !strings.Contains(failed.Error, "transient") {
		t.Fatalf("failed job error %q", failed.Error)
	}
	if code, _ := postJob(t, ts, `{"family":"fig11"}`); code != http.StatusAccepted {
		t.Fatalf("resubmit of failed job: code %d, want 202", code)
	}
	waitStatus(t, ts, st.Key, string(jobDone))
}

// TestDrainCheckpointResume is the drain/resume gate: a server holding one
// running and two queued jobs drains on demand — the running job finishes
// and lands in the cache, the queued two are checkpointed — and a restart
// over the same data dir re-enqueues exactly the checkpointed two, executes
// each once, and never re-executes the finished one.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	firstRuns := map[int64]int{}
	s1, ts1 := newTestServer(t, Config{
		DataDir: dir,
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			mu.Lock()
			firstRuns[sp.Seed]++
			mu.Unlock()
			started <- struct{}{}
			<-release
			return stubResult(sp), nil
		},
	})

	_, stA := postJob(t, ts1, `{"family":"fig11","seed":1}`)
	<-started // A is running; B and C below stay queued behind the single worker
	_, stB := postJob(t, ts1, `{"family":"fig11","seed":2}`)
	_, stC := postJob(t, ts1, `{"family":"fig12","seed":3}`)

	drained := make(chan int, 1)
	go func() {
		n, err := s1.Drain()
		if err != nil {
			t.Errorf("Drain: %v", err)
		}
		drained <- n
	}()
	// Let A finish only after Drain has committed (stop closed): the worker
	// must then exit rather than steal B from the backlog.
	waitClosed(t, s1.stop)
	close(release)
	if n := <-drained; n != 2 {
		t.Fatalf("Drain checkpointed %d jobs, want 2", n)
	}

	// Intake is refused mid-drain; reads keep working.
	if code, st := postJob(t, ts1, `{"family":"fig4"}`); code != http.StatusServiceUnavailable || st.Error == "" {
		t.Fatalf("post-drain submit: code %d error %q, want 503", code, st.Error)
	}
	if st := getStatus(t, ts1, stA.Key); st.Status != string(jobDone) {
		t.Fatalf("running job after drain: %s, want done", st.Status)
	}
	if !s1.cache.Has(stA.Key) {
		t.Fatal("drained running job's result is not in the cache")
	}

	// The checkpoint holds exactly the two queued specs, in order.
	data, err := os.ReadFile(filepath.Join(dir, "queue.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Schema != CheckpointSchema || len(cp.Jobs) != 2 ||
		cp.Jobs[0].Seed != 2 || cp.Jobs[1].Seed != 3 || cp.Jobs[1].Family != "fig12" {
		t.Fatalf("checkpoint %+v, want schema %s with seeds 2,3", cp, CheckpointSchema)
	}
	mu.Lock()
	if len(firstRuns) != 1 || firstRuns[1] != 1 {
		t.Fatalf("pre-drain executions %v, want only seed 1 once", firstRuns)
	}
	mu.Unlock()

	// Restart over the same data dir: the checkpoint resumes, the cache
	// dedupes, and no job is lost or double-executed.
	secondRuns := map[int64]int{}
	s2, ts2 := newTestServer(t, Config{
		DataDir: dir,
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			mu.Lock()
			secondRuns[sp.Seed]++
			mu.Unlock()
			return stubResult(sp), nil
		},
	})
	if n := s2.metrics.resumed.Load(); n != 2 {
		t.Fatalf("resumed counter %d, want 2", n)
	}
	waitStatus(t, ts2, stB.Key, string(jobDone))
	waitStatus(t, ts2, stC.Key, string(jobDone))
	mu.Lock()
	if len(secondRuns) != 2 || secondRuns[2] != 1 || secondRuns[3] != 1 {
		t.Fatalf("post-restart executions %v, want seeds 2 and 3 exactly once", secondRuns)
	}
	mu.Unlock()

	// A's result survives the restart as a cached done job.
	if st := getStatus(t, ts2, stA.Key); st.Status != string(jobDone) || !st.Cached {
		t.Fatalf("pre-restart result after restart: %+v, want cached done", st)
	}
	// The consumed checkpoint is gone until the next drain, which rewrites
	// it (empty this time).
	if _, err := os.Stat(filepath.Join(dir, "queue.json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not consumed on resume: %v", err)
	}
	if n, err := s2.Drain(); err != nil || n != 0 {
		t.Fatalf("second drain = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.json")); err != nil {
		t.Fatalf("drain did not write a checkpoint: %v", err)
	}
}

// TestResumeSkipsCached: a checkpointed spec whose result landed in the
// cache before the restart (or is duplicated inside the checkpoint) is not
// re-executed — the content key is the dedupe.
func TestResumeSkipsCached(t *testing.T) {
	dir := t.TempDir()
	spA := Spec{Family: "fig11", Seed: 1}.Normalized()
	spB := Spec{Family: "fig11", Seed: 2}.Normalized()

	// A finished just before the crash: its result is on disk, but the
	// checkpoint (written earlier) still lists it — twice, even.
	c, err := NewCache(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatal(err)
	}
	cachedBody := []byte("computed-before-restart")
	if err := c.Put(spA.Key(testVersion), cachedBody); err != nil {
		t.Fatal(err)
	}
	cp, _ := json.Marshal(checkpointFile{Schema: CheckpointSchema, Jobs: []Spec{spA, spB, spA}})
	if err := os.WriteFile(filepath.Join(dir, "queue.json"), cp, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	runs := map[int64]int{}
	s, ts := newTestServer(t, Config{
		DataDir: dir,
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			mu.Lock()
			runs[sp.Seed]++
			mu.Unlock()
			return stubResult(sp), nil
		},
	})
	if n := s.metrics.resumed.Load(); n != 1 {
		t.Fatalf("resumed counter %d, want 1 (only the uncached spec)", n)
	}
	waitStatus(t, ts, spB.Key(testVersion), string(jobDone))
	mu.Lock()
	if len(runs) != 1 || runs[2] != 1 {
		t.Fatalf("executions %v, want only seed 2 once", runs)
	}
	mu.Unlock()

	// The cached result is served untouched, not recomputed.
	resp, err := http.Get(ts.URL + "/results/" + spA.Key(testVersion))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, cachedBody) {
		t.Fatalf("cached result body %q, want %q", body, cachedBody)
	}
}

// TestResumeRejectsBadCheckpoint: an unknown schema fails startup loudly
// instead of silently dropping queued work.
func TestResumeRejectsBadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "queue.json"),
		[]byte(`{"schema":"dshserve-queue/v999","jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir, Version: testVersion}); err == nil {
		t.Fatal("New accepted a checkpoint with an unknown schema")
	}
}

// TestMetricsExposition scrapes /metrics after one computed run and one
// cache-hit submission and pins the counter lines the smoke leg greps for.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			return stubResult(sp), nil
		},
	})
	_, st := postJob(t, ts, `{"family":"fig11"}`)
	waitStatus(t, ts, st.Key, string(jobDone))
	postJob(t, ts, `{"family":"fig11","seed":1}`) // identical → memory hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"dshserve_jobs_submitted_total 2",
		"dshserve_cache_misses_total 1",
		`dshserve_cache_hits_total{tier="memory"} 1`,
		`dshserve_jobs_completed_total{status="done"} 1`,
		`dshserve_jobs_completed_total{status="failed"} 0`,
		"dshserve_queue_depth 0",
		"dshserve_jobs_running 0",
		`dshserve_job_duration_seconds_count{family="fig11"} 1`,
		`dshserve_job_duration_seconds_bucket{family="fig11",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestHealthzReportsDraining: the liveness endpoint flips its drain flag.
func TestHealthzReportsDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			return stubResult(sp), nil
		},
	})
	get := func() map[string]any {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := get(); m["status"] != "ok" || m["draining"] != false || m["version"] != testVersion {
		t.Fatalf("healthz before drain: %v", m)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if m := get(); m["draining"] != true {
		t.Fatalf("healthz after drain: %v", m)
	}
}

// TestCacheKeyIdenticalAcrossLPWorkers pins the knob-exclusion property end
// to end: lpWorkers selects an engine configuration whose results are
// bit-identical by the partitioned engine's determinism contract, so specs
// differing only in lpWorkers must map to one cache key — the first submit
// computes, every other lpWorkers value is a cache hit, and the execution
// that did run received its own spec's knob.
func TestCacheKeyIdenticalAcrossLPWorkers(t *testing.T) {
	var runs atomic.Int64
	var ranLPWorkers atomic.Int64
	_, ts := newTestServer(t, Config{
		RunFunc: func(sp Spec, _ string, _ func(dshsim.SweepProgress)) ([]byte, error) {
			runs.Add(1)
			ranLPWorkers.Store(int64(sp.LPWorkers))
			return stubResult(sp), nil
		},
	})

	code, first := postJob(t, ts, `{"family":"fig11","seed":7,"lpWorkers":1}`)
	if code != http.StatusAccepted || first.Cached {
		t.Fatalf("first submit: code %d cached %v, want 202 uncached", code, first.Cached)
	}
	waitStatus(t, ts, first.Key, string(jobDone))
	if got := ranLPWorkers.Load(); got != 1 {
		t.Fatalf("executor saw lpWorkers %d, want the submitted 1", got)
	}

	for _, body := range []string{
		`{"family":"fig11","seed":7,"lpWorkers":4}`,
		`{"family":"fig11","seed":7,"lpWorkers":2}`,
	} {
		code, st := postJob(t, ts, body)
		if st.Key != first.Key {
			t.Fatalf("submit %s: key %s, want %s — lpWorkers leaked into the content key", body, st.Key, first.Key)
		}
		if code != http.StatusOK || !st.Cached {
			t.Fatalf("submit %s: code %d cached %v, want a cache hit", body, code, st.Cached)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d executions for one content key, want 1", n)
	}

	// The classic engine may order same-instant events differently, so a
	// partitioned result must never be served for an lpWorkers-0 spec.
	code, classic := postJob(t, ts, `{"family":"fig11","seed":7}`)
	if classic.Key == first.Key {
		t.Fatalf("lpWorkers 0 shares key %s with the partitioned engine", first.Key)
	}
	if code != http.StatusAccepted || classic.Cached {
		t.Fatalf("classic submit: code %d cached %v, want 202 uncached", code, classic.Cached)
	}
	waitStatus(t, ts, classic.Key, string(jobDone))
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d executions, want 2 (one per engine)", n)
	}
}
