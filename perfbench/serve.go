package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dsh/internal/serve"
	"dsh/internal/wire"
)

// serve_mix drives an in-process dshserve over loopback HTTP with closed-loop
// clients: each starts its next session only after the previous one ends. A
// session is the client flow the repository documents (the sweep-service
// recipe in EXPERIMENTS.md, scripts/serve_smoke.sh): POST /jobs a spec, poll
// GET /jobs/{key} until it is done, then GET /results/{key}. A spec already
// cached is done at once, so its session is the POST and the GET.
const (
	serveClients = 2
	// serveSetups is how many times a run starts a server and prefills it;
	// setup_s is their median, so a one-off first-start cost does not count.
	serveSetups = 5
	// prefillPerFamily results of each cheap family fill about 4× the
	// server's default 128-entry memory LRU, so reads hit both tiers.
	prefillPerFamily = 171
	// coldEvery: one session in this many submits a new seed, which the
	// server must execute, cache and encode.
	coldEvery = 50
	// pollInterval is the fixed interval a client polls a cold job at.
	pollInterval = 200 * time.Microsecond
	// healthProbes is how many GET /healthz round trips the http.rtt_us
	// probe sends after the timed window, one at a time.
	healthProbes = 1000
)

// prefillFamilies are families whose results take milliseconds to compute.
var prefillFamilies = []string{"fig4", "theorem", "fig10"}

// coldFamily is the family of the cold submits.
const coldFamily = "theorem"

// coldSeedBase separates cold-submit seeds from prefill seeds, so a cold
// submit is never already cached.
const coldSeedBase = 1 << 40

// serveEnv is one running server with its prefilled results.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	dir     string
	specs   [][]byte          // prefilled spec bodies, as clients POST them
	keys    []string          // content key of each prefilled spec
	results map[string][]byte // first JSON fetch of every prefilled key
}

// startServe starts a server on a loopback port with an empty data
// directory. wrap, when non-nil, wraps the server's handler.
func startServe(dir string, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1},
			Timeout:   30 * time.Second,
		},
		dir:     dir,
		results: map[string][]byte{},
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	return e, nil
}

// close stops the HTTP server and the job workers, waits for both, and
// removes the data directory.
func (e *serveEnv) close() {
	// Close the client's idle connections first: the server counts a
	// connection that never carried a request as active for 5 s.
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain()
	os.RemoveAll(e.dir)
}

// do sends one request and reads the whole body; a non-2xx status is an
// error.
func (e *serveEnv) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// jobReply is the part of a POST /jobs or GET /jobs/{key} reply the
// benchmark checks.
type jobReply struct {
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// submit POSTs a spec and checks the reply's key against the client's own
// content key for the spec.
func (e *serveEnv) submit(body []byte, want string) (jobReply, error) {
	data, err := e.do("POST", "/jobs", body)
	if err != nil {
		return jobReply{}, err
	}
	var rep jobReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("POST /jobs: %w", err)
	}
	if rep.Key != want {
		return rep, fmt.Errorf("POST /jobs: key %s, client computed %s", rep.Key, want)
	}
	return rep, nil
}

// wait polls a job at the fixed interval until it is done and returns the
// number of polls sent.
func (e *serveEnv) wait(key string, tr *tracer, op int) (polls int, err error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		sp := tr.begin(op, "http", "GET /jobs")
		data, err := e.do("GET", "/jobs/"+key, nil)
		tr.end(sp)
		polls++
		if err != nil {
			return polls, err
		}
		var rep jobReply
		if err := json.Unmarshal(data, &rep); err != nil {
			return polls, fmt.Errorf("GET /jobs: %w", err)
		}
		switch rep.Status {
		case "done":
			return polls, nil
		case "failed":
			return polls, fmt.Errorf("job %s failed: %s", key, rep.Error)
		}
		if time.Now().After(deadline) {
			return polls, fmt.Errorf("job %s still %s after 20 s", key, rep.Status)
		}
		time.Sleep(pollInterval)
	}
}

// specKey is what a client does before it submits: parse its spec body the
// way the server does and derive the content key.
func specKey(body []byte, version string) (string, error) {
	sp, err := serve.ParseSpec(body)
	if err != nil {
		return "", err
	}
	return sp.Normalized().Key(version), nil
}

func specBody(family string, seed int64) []byte {
	// A Spec without a fault scenario always marshals.
	b, _ := json.Marshal(serve.Spec{Family: family, Seed: seed, Workers: 1})
	return b
}

// prefillSpecs generates the spec bodies a server is prefilled with.
func prefillSpecs(seed int64, perFamily int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var specs [][]byte
	for _, fam := range prefillFamilies {
		for i := 0; i < perFamily; i++ {
			specs = append(specs, specBody(fam, 1+rng.Int63n(coldSeedBase-1)))
		}
	}
	return specs
}

// prefill submits perFamily specs of every cheap family, waits until all
// are computed, and fetches each result once as the reference body.
func (e *serveEnv) prefill(seed int64, perFamily int) error {
	e.specs = prefillSpecs(seed, perFamily)
	// Submit in waves below the server's 256-job queue bound; the single
	// job worker runs them in order, so the last of a wave finishes last.
	const wave = 128
	for lo := 0; lo < len(e.specs); lo += wave {
		hi := min(lo+wave, len(e.specs))
		for _, body := range e.specs[lo:hi] {
			key, err := specKey(body, e.srv.Version())
			if err != nil {
				return err
			}
			if _, err := e.submit(body, key); err != nil {
				return err
			}
			e.keys = append(e.keys, key)
		}
		if _, err := e.wait(e.keys[hi-1], nil, 0); err != nil {
			return err
		}
	}
	for _, key := range e.keys {
		data, err := e.do("GET", "/results/"+key, nil)
		if err != nil {
			return err
		}
		e.results[key] = data
	}
	return nil
}

// scrape reads the server's counters from GET /metrics.
func (e *serveEnv) scrape() (map[string]float64, error) {
	data, err := e.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		// Sum a histogram's per-family series under the bare metric name.
		if i := strings.Index(name, "{family="); i >= 0 && !strings.Contains(name, "le=") {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// The series a client records, each a bounded uniform sample.
const (
	sAll       = iota // untraced session latencies (s)
	sTraced           // traced session latencies (s)
	sReads            // GET /results latencies (s)
	sJobs             // cold session latencies, submit to result bytes (s)
	sKeyUS            // client ParseSpec + Key (µs)
	sDecUS            // wire.DecodeResult (µs)
	sWireRatio        // wire body bytes ÷ JSON body bytes
	nSeries
)

// clientStats is one closed-loop client's view of the timed window.
type clientStats struct {
	attempted, failed int
	requests          int // HTTP requests sent, polls included
	failures          []string
	s                 [nSeries]series
	respBytes         int64
	tr                *tracer
}

func (st *clientStats) fail(err error) {
	st.failed++
	if len(st.failures) < 10 {
		st.failures = append(st.failures, err.Error())
	}
}

// merge folds another client's samples into st.
func (st *clientStats) merge(o *clientStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.requests += o.requests
	st.failures = append(st.failures, o.failures...)
	for i := range st.s {
		st.s[i].merge(&o.s[i])
	}
	st.respBytes += o.respBytes
}

// runClient runs one closed-loop client's sessions until the deadline.
func (e *serveEnv) runClient(id int, seed int64, deadline time.Time, trace bool) *clientStats {
	st := &clientStats{}
	if trace {
		st.tr = newTracer()
	}
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	version := e.srv.Version()
	for op := 0; time.Now().Before(deadline); op++ {
		var tr *tracer
		if trace && op%2 == 1 {
			tr = st.tr
		}
		st.attempted++
		root := tr.begin(op, "bench", "session")
		lat, err := e.session(rng, st, tr, op, version)
		tr.end(root)
		if err != nil {
			st.fail(err)
			continue
		}
		if tr != nil {
			st.s[sTraced].add(lat)
		} else {
			st.s[sAll].add(lat)
		}
	}
	return st
}

// session runs one client session, checks every reply and returns its
// latency in seconds: POST to the last result byte. One session in
// coldEvery submits a new theorem seed; the others re-submit a random
// prefilled spec and fetch its result as JSON or, half of the time, in the
// wire format.
func (e *serveEnv) session(rng *rand.Rand, st *clientStats, tr *tracer, op int, version string) (float64, error) {
	cold := rng.Intn(coldEvery) == 0
	var body, want []byte
	asWire := false
	if cold {
		body = specBody(coldFamily, coldSeedBase+rng.Int63n(coldSeedBase))
	} else {
		i := rng.Intn(len(e.specs))
		body, want = e.specs[i], e.results[e.keys[i]]
		asWire = rng.Intn(2) == 0
	}
	t := time.Now()
	sp := tr.begin(op, "serve", "ParseSpec+Key")
	key, err := specKey(body, version)
	tr.end(sp)
	st.s[sKeyUS].add(time.Since(t).Seconds() * 1e6)
	if err != nil {
		return 0, err
	}

	start := time.Now()
	sp = tr.begin(op, "http", "POST /jobs")
	rep, err := e.submit(body, key)
	tr.end(sp)
	st.requests++
	if err != nil {
		return 0, err
	}
	switch {
	case !cold && (!rep.Cached || rep.Status != "done"):
		return 0, fmt.Errorf("re-POST of a cached spec: status %q cached %t", rep.Status, rep.Cached)
	case rep.Status != "done":
		polls, err := e.wait(key, tr, op)
		st.requests += polls
		if err != nil {
			return 0, err
		}
	}
	path := "/results/" + key
	if asWire {
		path += "?format=wire"
	}
	t = time.Now()
	sp = tr.begin(op, "http", "GET /results")
	data, err := e.do("GET", path, nil)
	tr.end(sp)
	st.requests++
	lat := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	st.s[sReads].add(time.Since(t).Seconds())
	st.respBytes += int64(len(data))
	if cold {
		st.s[sJobs].add(lat)
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Key != key {
			return 0, fmt.Errorf("%s: result of key %q (%v)", path, env.Key, err)
		}
		return lat, nil
	}
	if asWire {
		st.s[sWireRatio].add(float64(len(data)) / float64(len(want)))
		t := time.Now()
		sp := tr.begin(op, "wire", "DecodeResult")
		dec, err := wire.DecodeResult(data)
		tr.end(sp)
		st.s[sDecUS].add(time.Since(t).Seconds() * 1e6)
		if err != nil {
			return 0, fmt.Errorf("decode wire body of %s: %w", key, err)
		}
		data = dec
	}
	if !bytes.Equal(data, want) {
		return 0, fmt.Errorf("%s: body differs from the first fetch", path)
	}
	return lat, nil
}

// runServe is the serve_mix workload.
func runServe(opt options, r *report, wrap func(http.Handler) http.Handler) error {
	perFamily, seconds := prefillPerFamily, opt.seconds
	if opt.toy {
		perFamily = 4
	}
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		// Collect the previous setup's garbage and flush its file writes and
		// deletes to disk (sync(2)), so neither is billed here.
		runtime.GC()
		syscall.Sync()
		t := time.Now()
		var err error
		env, err = startServe(filepath.Join(opt.dir, "serve", strconv.Itoa(os.Getpid())), wrap)
		if err != nil {
			return err
		}
		if err = env.prefill(opt.seed, perFamily); err != nil {
			env.close()
			return fmt.Errorf("serve_mix setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()
	r.e2e("setup_s", median(setups), len(setups))
	h := sha256.New()
	for _, key := range env.keys {
		h.Write(env.results[key])
	}
	r.digest = fmt.Sprintf("%x", h.Sum(nil))

	before, err := env.scrape()
	if err != nil {
		return err
	}
	alloc0 := totalAllocMB()
	sw := startWatch()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	stats := make([]*clientStats, serveClients)
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = env.runClient(c, opt.seed, deadline, opt.trace)
		}(c)
	}
	wg.Wait()
	wall, cpu := sw.elapsed()
	allocMB := totalAllocMB() - alloc0
	after, err := env.scrape()
	if err != nil {
		return err
	}

	all := &clientStats{}
	var tracers []*tracer
	for _, cs := range stats {
		all.merge(cs)
		tracers = append(tracers, cs.tr)
	}
	r.attempted, r.failed = all.attempted, all.failed
	r.failures = append(r.failures, all.failures[:min(len(all.failures), 10)]...)
	// quant reports the p-quantile of series i, scaled to the metric's unit.
	quant := func(name string, i int, p, scale float64) {
		r.layer(name, quantile(all.s[i].xs, p)*scale, all.s[i].seen)
	}
	n := r.attempted
	r.e2e("wall_s", median(all.s[sAll].xs), all.s[sAll].seen)
	r.e2e("cpu_s", cpu/float64(n), n)
	r.e2e("alloc_mb_per_op", allocMB/float64(n), n)
	quant("read_ms_p50", sReads, 0.50, 1e3)
	quant("read_ms_p99", sReads, 0.99, 1e3)
	quant("job_ms_p50", sJobs, 0.50, 1e3)
	r.layer("req_per_s", float64(all.requests)/wall, all.requests)
	if reads := all.s[sReads].seen; reads > 0 {
		r.layer("http.resp_kb", float64(all.respBytes)/1e3/float64(reads), reads)
	}
	quant("serve.key_us", sKeyUS, 0.50, 1)
	quant("wire.decode_us", sDecUS, 0.50, 1)
	r.layer("wire.bytes_ratio", mean(all.s[sWireRatio].xs), all.s[sWireRatio].seen)

	delta := func(name string) float64 { return after[name] - before[name] }
	mem, disk := delta(`dshserve_cache_hits_total{tier="memory"}`), delta(`dshserve_cache_hits_total{tier="disk"}`)
	if mem+disk > 0 {
		r.layer("serve.hit_ratio_mem", mem/(mem+disk), int(mem+disk))
	}
	r.layer("serve.disk_hits", disk, 1)
	r.layer("serve.rejected", delta("dshserve_jobs_rejected_total"), 1)
	if jobs := delta("dshserve_job_duration_seconds_count"); jobs > 0 {
		exec := delta("dshserve_job_duration_seconds_sum") / jobs * 1e3
		r.layer("serve.job_exec_ms", exec, int(jobs))
		// What a cold session spends outside execution: queueing, the poll
		// interval and the result fetch.
		r.layer("serve.queue_wait_ms", mean(all.s[sJobs].xs)*1e3-exec, all.s[sJobs].seen)
	}

	// Two probes after the timed window, outside every end-to-end figure:
	// the loopback round trip of the cheapest endpoint, and the encode the
	// server's Cache.Put runs on each new result, timed on the prefilled
	// bodies.
	var probe *tracer
	if opt.trace {
		probe = newTracer()
	}
	var rtt, enc series
	for i := 0; i < healthProbes; i++ {
		t := time.Now()
		sp := probe.begin(i, "http", "GET /healthz")
		_, err := env.do("GET", "/healthz", nil)
		probe.end(sp)
		if err != nil {
			return err
		}
		rtt.add(time.Since(t).Seconds() * 1e6)
	}
	r.layer("http.rtt_us", median(rtt.xs), rtt.seen)
	for i, key := range env.keys {
		t := time.Now()
		sp := probe.begin(i, "wire", "EncodeResult")
		wire.EncodeResult(env.results[key])
		probe.end(sp)
		enc.add(time.Since(t).Seconds() * 1e6)
	}
	r.layer("wire.encode_us", median(enc.xs), enc.seen)

	if opt.trace {
		r.layer("trace.overhead", median(all.s[sTraced].xs)/median(all.s[sAll].xs), all.s[sTraced].seen)
		r.traceSelf(all.s[sTraced].seen, tracers, probe)
	}
	if r.attempted == 0 {
		return errors.New("serve_mix: no session completed")
	}
	return nil
}
