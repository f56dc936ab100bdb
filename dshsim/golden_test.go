package dshsim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dsh/dshsim"
	"dsh/internal/serve"
)

// The golden corpus pins this build's outputs to committed SHA-256 digests,
// so "byte-identical to the previous build" is a test rather than a claim.
// Every other equivalence test compares this build to itself (Workers 1≡N,
// LPWorkers 1≡4, capture≡replay); a refactor that shifts every
// configuration together passes those and fails here.
//
// Three digest sets, one file each under testdata/golden:
//
//   - execute.sha256: the canonical serve.Execute result body of every
//     family at seed 1, reduced scale, classic engine — the bytes dshserve
//     caches and `dshbench -json` prints.
//   - rows_lp4.sha256: json.Marshal of the RunFamily rows at LPWorkers 4,
//     the partitioned engine's results.
//   - trace.sha256: the .dshtrace stream of every capture scenario at
//     seed 1, i.e. every packet departure in order.
//
// The small execute bodies (goldenBodies) are also committed in full as
// execute.<family>.json beside the digests, so a mismatch names the first
// line that differs instead of only a hash.
//
// `go test ./dshsim/ -run TestGolden -update` rewrites the digests of the
// cases that ran (so -short -update leaves the heavy ones untouched). A
// regenerated digest is a changed output: name it and say why in
// CHANGES.md.

var update = flag.Bool("update", false, "rewrite the testdata/golden digests from this build")

// goldenCost is the wall time of one case of each heavy family at reduced
// scale on a 2-vCPU host, the slower of its two engines rounded up. -short
// skips these families; every other case takes a few seconds at most.
var goldenCost = map[string]time.Duration{
	"fig15": 95 * time.Second, "fig14": 80 * time.Second, "faults": 50 * time.Second,
	"fig5": 25 * time.Second, "fig12": 20 * time.Second,
}

// goldenReserve is the time a heavy case needs left before the test
// binary's deadline to start: twice its cost, scaled by how much slower
// than goldenCost the heavy cases have run so far in this binary. A case
// that would start later is skipped, so the corpus cannot push the whole
// package past the 10-min default -timeout of a plain `go test ./...`.
// The cases run light first, then heavy most expensive first, so the
// cases nearest the deadline are the cheapest to fit. `make golden` and
// the CI golden leg pass a long -timeout and never skip.
func goldenReserve(cost, spent, planned time.Duration) time.Duration {
	reserve := 2 * cost
	if spent > planned {
		reserve = time.Duration(float64(reserve) * float64(spent) / float64(planned))
	}
	return reserve
}

const goldenCodeVersion = "golden"

// goldenBodies are the execute-set families whose full result body is
// committed next to its digest.
var goldenBodies = map[string]bool{"fig4": true, "theorem": true}

func TestGolden(t *testing.T) {
	type goldenCase struct {
		set, name string
		cost      time.Duration // zero for a light case
		produce   func() ([]byte, error)
	}
	var tests []goldenCase
	for _, fam := range dshsim.Families() {
		tests = append(tests, goldenCase{
			set: "execute", name: fam, cost: goldenCost[fam],
			produce: func() ([]byte, error) {
				return serve.Execute(serve.Spec{Family: fam, Seed: 1}, goldenCodeVersion, nil)
			},
		})
	}
	for _, fam := range dshsim.Families() {
		tests = append(tests, goldenCase{
			set: "rows_lp4", name: fam, cost: goldenCost[fam],
			produce: func() ([]byte, error) {
				rows, err := dshsim.RunFamily(fam, dshsim.ExpOptions{Seed: 1, LPWorkers: 4}, nil)
				if err != nil {
					return nil, err
				}
				return json.Marshal(rows)
			},
		})
	}
	for _, sc := range dshsim.TraceScenarios() {
		tests = append(tests, goldenCase{
			set: "trace", name: sc,
			produce: func() ([]byte, error) {
				var buf bytes.Buffer
				_, err := dshsim.CaptureTrace(sc, 1, &buf)
				return buf.Bytes(), err
			},
		})
	}

	sets := map[string]map[string]string{}
	for _, tt := range tests {
		if sets[tt.set] == nil {
			sets[tt.set] = readGolden(t, tt.set)
		}
	}
	sort.SliceStable(tests, func(i, j int) bool {
		ci, cj := tests[i].cost, tests[j].cost
		if (ci == 0) != (cj == 0) {
			return ci == 0
		}
		return ci > cj
	})
	var spent, planned time.Duration // heavy cases so far: wall time, goldenCost
	for _, tt := range tests {
		t.Run(tt.set+"/"+tt.name, func(t *testing.T) {
			if tt.cost > 0 {
				if testing.Short() {
					t.Skip("heavy family; runs without -short")
				}
				reserve := goldenReserve(tt.cost, spent, planned)
				if dl, ok := t.Deadline(); ok && time.Until(dl) < reserve {
					t.Skipf("heavy family and under %v to the test deadline; `make golden` runs it", reserve)
				}
				start := time.Now()
				defer func() { spent, planned = spent+time.Since(start), planned+tt.cost }()
			}
			out, err := tt.produce()
			if err != nil {
				t.Fatalf("produce: %v", err)
			}
			sum := sha256.Sum256(out)
			got := hex.EncodeToString(sum[:])
			body := tt.set == "execute" && goldenBodies[tt.name]
			if *update {
				sets[tt.set][tt.name] = got
				if body {
					if err := os.WriteFile(bodyPath(tt.name), out, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want, ok := sets[tt.set][tt.name]
			if !ok {
				t.Fatalf("no golden digest for %s/%s (got %s); run with -update", tt.set, tt.name, got)
			}
			if got != want {
				t.Errorf("digest = %s, want %s (%d output bytes)", got, want, len(out))
				if body {
					t.Error(firstDiff(t, bodyPath(tt.name), out))
				}
			}
		})
	}
	if *update {
		for set, digests := range sets {
			writeGolden(t, set, digests)
		}
	}
}

func goldenPath(set string) string {
	return filepath.Join("testdata", "golden", set+".sha256")
}

func bodyPath(family string) string {
	return filepath.Join("testdata", "golden", "execute."+family+".json")
}

// firstDiff describes the first line where out departs from the committed
// body at path.
func firstDiff(t *testing.T, path string, out []byte) string {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(out), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("%s line %d:\n  want %q\n  got  %q", path, i+1, w, g)
		}
	}
	return path + ": bodies equal line by line"
}

// readGolden parses one digest file in sha256sum format: "<hex>  <name>"
// per line. A missing file reads as empty so -update can create it.
func readGolden(t *testing.T, set string) map[string]string {
	t.Helper()
	digests := map[string]string{}
	f, err := os.Open(goldenPath(set))
	if os.IsNotExist(err) && *update {
		return digests
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath(set), sc.Text())
		}
		digests[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

func writeGolden(t *testing.T, set string, digests map[string]string) {
	t.Helper()
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "%s  %s\n", digests[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(set)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(set), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
