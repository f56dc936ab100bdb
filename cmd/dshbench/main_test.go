package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The test binary doubles as dshbench: with asMainEnv set, TestMain runs
// main() on the process arguments instead of the tests, so a test drives
// the real CLI (flag parsing, exit codes, stdout) without a separate build.
const asMainEnv = "DSHBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dshbench runs the CLI with args and returns its stdout, stderr and exit
// status.
func dshbench(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("dshbench %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), code
}

var update = flag.Bool("update", false, "rewrite testdata/tables.sha256 from this build")

// tableFamilies are the families TestGoldenTables pins: every family that
// finishes in a few seconds at reduced scale. The five heavy ones (fig5,
// fig12, fig14, fig15, faults) would double the runtime of the dshsim
// golden corpus, which already pins their rows.
var tableFamilies = []string{"fig4", "theorem", "fig10", "fig11", "fig13", "fig6", "scale", "ablation"}

const tablesPath = "testdata/tables.sha256"

// TestGoldenTables pins the text tables dshbench prints: the SHA-256 of
// `dshbench -quiet <family>` stdout at seed 1, minus the wall-clock footer
// line, against testdata/tables.sha256. `-update` rewrites the digests of
// the families that ran; a changed digest is a changed table and belongs
// in CHANGES.md.
func TestGoldenTables(t *testing.T) {
	digests := readDigests(t)
	for _, fam := range tableFamilies {
		t.Run(fam, func(t *testing.T) {
			stdout, stderr, code := dshbench(t, "-quiet", fam)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			footer := "---- " + fam + " done in "
			var kept bytes.Buffer
			for _, line := range strings.SplitAfter(string(stdout), "\n") {
				if !strings.HasPrefix(line, footer) {
					kept.WriteString(line)
				}
			}
			sum := sha256.Sum256(kept.Bytes())
			got := hex.EncodeToString(sum[:])
			if *update {
				digests[fam] = got
				return
			}
			if want, ok := digests[fam]; !ok {
				t.Fatalf("no digest for %s (got %s); run with -update", fam, got)
			} else if got != want {
				t.Errorf("digest = %s, want %s; table:\n%s", got, want, kept.Bytes())
			}
		})
	}
	if *update {
		writeDigests(t, digests)
	}
}

// readDigests parses tablesPath in sha256sum format: "<hex>  <family>".
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	f, err := os.Open(tablesPath)
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
			t.Fatalf("%s: malformed line %q", tablesPath, sc.Text())
		}
		digests[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

func writeDigests(t *testing.T, digests map[string]string) {
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
	if err := os.MkdirAll(filepath.Dir(tablesPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tablesPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBadInvocations pins the exit status of rejected command lines. A
// scenario file is read and checked against the fabric before any family
// runs, so `all` fails at once with nothing on stdout instead of after
// every family before faults. The golden scenario addresses the switch
// ports of a different fabric (node 8 is a host here): it is rejected with
// one error line naming the event, not a panic inside a sweep job.
func TestBadInvocations(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	const golden = "../../internal/fault/testdata/scenario.golden.json"
	const goldenErr = `event 0 (link-flap): host 8 has only port 0`
	for _, tc := range []struct {
		args    []string
		code    int
		errLine string // when set, stderr must be exactly one line containing it
	}{
		{[]string{"-quiet", "-faults", missing, "all"}, 1, ""},
		{[]string{"-quiet", "-faults", missing, "fig4"}, 2, ""},
		{[]string{"-quiet", "-faults", golden, "faults"}, 1, goldenErr},
		{[]string{"-quiet", "-faults", golden, "all"}, 1, goldenErr},
		{[]string{"-quiet", "-fidelity", "flow", "fig4"}, 2, ""},
		{[]string{"-quiet", "-fidelity", "bogus", "all"}, 2, ""},
		{[]string{"-quiet", "-json", "all"}, 2, ""},
		{[]string{"-quiet", "fig99"}, 2, ""},
	} {
		stdout, stderr, code := dshbench(t, tc.args...)
		if code != tc.code || len(stdout) != 0 {
			t.Errorf("dshbench %v: exit %d with %d stdout bytes, want exit %d and no stdout; stderr:\n%s",
				tc.args, code, len(stdout), tc.code, stderr)
		}
		if tc.errLine == "" {
			continue
		}
		lines := strings.Split(strings.TrimSuffix(string(stderr), "\n"), "\n")
		if len(lines) != 1 || !strings.Contains(lines[0], tc.errLine) || bytes.Contains(stderr, []byte("goroutine")) {
			t.Errorf("dshbench %v: stderr %q, want one line containing %q", tc.args, stderr, tc.errLine)
		}
	}
}
