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
// `go test -run TestGolden -update ./dshsim/` rewrites the digests of the
// cases that ran (so -short -update leaves the heavy ones untouched). A
// regenerated digest is a changed output: name it and say why in
// CHANGES.md.

var update = flag.Bool("update", false, "rewrite the testdata/golden digests from this build")

// goldenHeavy are the families that take 10 s or more at reduced scale;
// -short skips them. CI runs the full corpus in its golden leg.
var goldenHeavy = map[string]bool{
	"fig5": true, "fig12": true, "fig14": true, "fig15": true, "faults": true,
}

// goldenReserve is the time left before the test binary's deadline below
// which heavy cases are skipped, so the corpus cannot push the whole
// package past the default 10-min -timeout of a plain `go test ./...`.
// `make golden` and the CI golden leg pass a long -timeout and never skip.
const goldenReserve = 2 * time.Minute

const goldenCodeVersion = "golden"

func TestGolden(t *testing.T) {
	type goldenCase struct {
		set, name string
		heavy     bool
		produce   func() ([]byte, error)
	}
	var tests []goldenCase
	for _, fam := range dshsim.Families() {
		tests = append(tests, goldenCase{
			set: "execute", name: fam, heavy: goldenHeavy[fam],
			produce: func() ([]byte, error) {
				return serve.Execute(serve.Spec{Family: fam, Seed: 1}, goldenCodeVersion, nil)
			},
		})
	}
	for _, fam := range dshsim.Families() {
		tests = append(tests, goldenCase{
			set: "rows_lp4", name: fam, heavy: goldenHeavy[fam],
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
	for _, tt := range tests {
		t.Run(tt.set+"/"+tt.name, func(t *testing.T) {
			if tt.heavy {
				if testing.Short() {
					t.Skip("heavy family; runs without -short")
				}
				if dl, ok := t.Deadline(); ok && time.Until(dl) < goldenReserve {
					t.Skipf("heavy family and under %v to the test deadline; `make golden` runs it", goldenReserve)
				}
			}
			out, err := tt.produce()
			if err != nil {
				t.Fatalf("produce: %v", err)
			}
			sum := sha256.Sum256(out)
			got := hex.EncodeToString(sum[:])
			if *update {
				sets[tt.set][tt.name] = got
				return
			}
			want, ok := sets[tt.set][tt.name]
			if !ok {
				t.Fatalf("no golden digest for %s/%s (got %s); run with -update", tt.set, tt.name, got)
			}
			if got != want {
				t.Errorf("digest = %s, want %s (%d output bytes)", got, want, len(out))
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
