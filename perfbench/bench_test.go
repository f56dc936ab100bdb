package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func toyOptions(t *testing.T, seed int64, trace bool) options {
	return options{seed: seed, seconds: 0.05, trace: trace, toy: true, dir: t.TempDir()}
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestToyRunsPrintEveryMetric runs every workload of BENCHMARK.json at toy
// size, untraced and traced, and checks that the output names exactly the
// file's metrics with their units, on a human-readable line and in the
// final JSON line.
func TestToyRunsPrintEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			r, err := run(name, toyOptions(t, 1, trace))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out bytes.Buffer
			if err := r.print(&out, readProvenance()); err != nil {
				t.Fatal(err)
			}
			text := strings.TrimSpace(out.String())
			lines := strings.Split(text, "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", name, trace,
					res.Correct, res.Attempted, res.Failed, text)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q, want %q", name, trace, m, got.Unit, unit)
				}
				if !strings.Contains(text, "\n"+m+" ") {
					t.Errorf("%s trace=%t: no report line for %s", name, trace, m)
				}
			}
		}
	}
}

// TestCorruptWireBodyIsAFailure flips a byte of every wire-format result
// body: the run must count those reads as failed, not crash.
func TestCorruptWireBodyIsAFailure(t *testing.T) {
	corrupt := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Query().Get("format") != "wire" {
				h.ServeHTTP(w, req)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			body := rec.Body.Bytes()
			if len(body) > 0 {
				body[len(body)/2] ^= 0xff
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	opt := toyOptions(t, 1, false)
	opt.seconds = 0.2
	r := newReport("serve_mix", opt)
	if err := runServe(opt, r, corrupt); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failed >= r.attempted {
		t.Fatalf("attempted %d failed %d: want some but not all requests failed", r.attempted, r.failed)
	}
}

var simBuilders = map[string]func(bool) *simWorkload{
	"leafspine_dcqcn": newLeafSpineDCQCN,
	"fattree_lp":      newFatTreeLP,
	"scale_flow":      newScaleFlow,
}

// TestSameSeedSameDigest runs each simulator workload twice at one seed.
func TestSameSeedSameDigest(t *testing.T) {
	for name := range simBuilders {
		var digests []string
		for i := 0; i < 2; i++ {
			r, err := run(name, toyOptions(t, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.digest == "" {
				t.Fatalf("%s: failed %d digest %q: %v", name, r.failed, r.digest, r.failures)
			}
			digests = append(digests, r.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests %s and %s at the same seed", name, digests[0], digests[1])
		}
	}
}

// TestSeedChangesInputs checks that another seed gives other schedules and
// another prefill spec set.
func TestSeedChangesInputs(t *testing.T) {
	for name, mk := range simBuilders {
		w := mk(true)
		_, racks := w.build(w.nc)
		a := w.schedule(rand.New(rand.NewSource(1)), racks)
		b := w.schedule(rand.New(rand.NewSource(2)), racks)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", name)
		}
		if again := w.schedule(rand.New(rand.NewSource(1)), racks); !reflect.DeepEqual(a, again) {
			t.Errorf("%s: seed 1 gives two different schedules", name)
		}
	}
	if reflect.DeepEqual(prefillSpecs(1, 4), prefillSpecs(2, 4)) {
		t.Error("serve_mix: seeds 1 and 2 give the same prefill specs")
	}
}
