package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dsh/dshsim"
	"dsh/units"
)

const testVersion = "test-version"

// TestKeyIgnoresEncodingNoise: two client encodings of the same experiment
// — different JSON key order, defaults spelled out vs omitted, execution
// knobs present or absent — must land on the same content key, or the
// cache never hits. (lpWorkers > 0 selects another engine and so another
// key; TestKeyExcludesExecutionKnobs covers it.)
func TestKeyIgnoresEncodingNoise(t *testing.T) {
	variants := []string{
		`{"family":"fig11","seed":1}`,
		`{"seed":1,"family":"fig11"}`,
		`{"family":"fig11"}`,                           // seed omitted: defaults to 1
		`{"family":"fig11","full":false}`,              // default spelled out
		`{"family":"fig11","seed":1,"workers":8}`,      // execution knob
		`{"workers":3,"lpWorkers":0,"family":"fig11"}`, // execution knobs, reordered
		`{"family":"FIG11","seed":1}`,                  // family case-folds
		`{"family":"  fig11 ","seed":1,"lpWorkers":0}`, // whitespace
	}
	var want string
	for i, v := range variants {
		sp, err := ParseSpec([]byte(v))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		key := sp.Normalized().Key(testVersion)
		if i == 0 {
			want = key
			continue
		}
		if key != want {
			t.Errorf("variant %d (%s): key %s, want %s", i, v, key, want)
		}
	}
}

// TestKeyPropertyRandomOrder: assemble the same spec from randomly ordered
// field fragments, with defaults randomly spelled out and execution knobs
// randomly attached; every permutation must hash identically to the spec
// on the same engine (classic for lpWorkers 0, partitioned otherwise).
func TestKeyPropertyRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	classic := Spec{Family: "fig12", Seed: 42, Scheme: "DSH"}.Normalized().Key(testVersion)
	partitioned := Spec{Family: "fig12", Seed: 42, Scheme: "DSH", LPWorkers: 1}.Normalized().Key(testVersion)
	for trial := 0; trial < 200; trial++ {
		want := classic
		fields := []string{
			`"family":"fig12"`,
			`"seed":42`,
			`"scheme":"dsh"`, // case-insensitive on the wire
		}
		if rng.Intn(2) == 0 {
			fields = append(fields, `"full":false`)
		}
		if rng.Intn(2) == 0 {
			fields = append(fields, fmt.Sprintf(`"workers":%d`, rng.Intn(16)))
		}
		if rng.Intn(2) == 0 {
			lp := rng.Intn(8)
			fields = append(fields, fmt.Sprintf(`"lpWorkers":%d`, lp))
			if lp > 0 {
				want = partitioned
			}
		}
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		doc := "{" + strings.Join(fields, ",") + "}"
		sp, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, doc, err)
		}
		if got := sp.Normalized().Key(testVersion); got != want {
			t.Fatalf("trial %d (%s): key %s, want %s", trial, doc, got, want)
		}
	}
}

// TestKeySemanticFieldsIncluded: every field that changes what is computed
// must change the key — seed, family, full, headroom scheme, the fault
// scenario, and the code version itself.
func TestKeySemanticFieldsIncluded(t *testing.T) {
	base := Spec{Family: "faults", Seed: 1}.Normalized()
	baseKey := base.Key(testVersion)
	mutate := []struct {
		name string
		sp   Spec
		ver  string
	}{
		{"seed", Spec{Family: "faults", Seed: 2}, testVersion},
		{"family", Spec{Family: "fig12", Seed: 1}, testVersion},
		{"full", Spec{Family: "faults", Seed: 1, Full: true}, testVersion},
		{"scheme/headroom-mode", Spec{Family: "faults", Seed: 1, Scheme: "DSH"}, testVersion},
		{"faults-scenario", Spec{Family: "faults", Seed: 1,
			Faults: &dshsim.FaultScenario{Name: "x", Events: []dshsim.FaultEvent{
				{Kind: dshsim.FaultLinkFlap, At: units.Millisecond, Node: 1, Port: 2},
			}}}, testVersion},
		{"code-version", Spec{Family: "faults", Seed: 1}, "other-version"},
	}
	seen := map[string]string{baseKey: "base"}
	for _, m := range mutate {
		sp := m.sp.Normalized()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: unexpectedly invalid: %v", m.name, err)
		}
		key := sp.Key(m.ver)
		if key == baseKey {
			t.Errorf("%s: key unchanged from base", m.name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key collides with %s", m.name, prev)
		}
		seen[key] = m.name
	}

	// The two headroom modes must hash apart from each other, too.
	sih := Spec{Family: "faults", Seed: 1, Scheme: "sih"}.Normalized().Key(testVersion)
	dsh := Spec{Family: "faults", Seed: 1, Scheme: "dsh"}.Normalized().Key(testVersion)
	if sih == dsh {
		t.Error("SIH and DSH scheme filters hash to the same key")
	}

	// Scenario *content* is semantic: two scenarios differing in one event
	// field must not alias.
	scA := Spec{Family: "faults", Seed: 1, Faults: &dshsim.FaultScenario{Name: "s",
		Events: []dshsim.FaultEvent{{Kind: dshsim.FaultPauseStorm, At: units.Millisecond, Node: 3, Class: -1}}}}
	scB := scA
	evs := []dshsim.FaultEvent{{Kind: dshsim.FaultPauseStorm, At: 2 * units.Millisecond, Node: 3, Class: -1}}
	scB.Faults = &dshsim.FaultScenario{Name: "s", Events: evs}
	if scA.Normalized().Key(testVersion) == scB.Normalized().Key(testVersion) {
		t.Error("fault scenarios with different events hash to the same key")
	}
}

// TestKeyExcludesExecutionKnobs pins the exclusion list: Workers and the
// LPWorkers count select an engine configuration that is bit-identical to
// its siblings by the repo's equivalence tests, so they must not split the
// cache. Only the classic-vs-partitioned choice does.
func TestKeyExcludesExecutionKnobs(t *testing.T) {
	classic := Spec{Family: "fig11", Seed: 9}.Normalized().Key(testVersion)
	partitioned := Spec{Family: "fig11", Seed: 9, LPWorkers: 1}.Normalized().Key(testVersion)
	if classic == partitioned {
		t.Fatal("classic and partitioned engines share a key")
	}
	for _, tt := range []struct {
		sp   Spec
		want string
	}{
		{Spec{Family: "fig11", Seed: 9, Workers: 1}, classic},
		{Spec{Family: "fig11", Seed: 9, Workers: 64}, classic},
		{Spec{Family: "fig11", Seed: 9, LPWorkers: 4}, partitioned},
		{Spec{Family: "fig11", Seed: 9, Workers: 2, LPWorkers: 8}, partitioned},
	} {
		if got := tt.sp.Normalized().Key(testVersion); got != tt.want {
			t.Errorf("%+v: key %s, want %s (execution knob leaked into the hash)", tt.sp, got, tt.want)
		}
	}
}

// TestKeyFidelitySemantic: fidelity selects the simulation granularity —
// every FCT in the result differs across modes — so it must split the key;
// and because it is omitempty in the canonical encoding, an empty fidelity
// must leave the pre-fidelity keys of every existing cached spec intact.
func TestKeyFidelitySemantic(t *testing.T) {
	keys := map[string]string{}
	for _, f := range []string{"", "packet", "flow", "hybrid"} {
		sp := Spec{Family: "scale", Seed: 1, Fidelity: f}.Normalized()
		if f != "" {
			if err := sp.Validate(); err != nil {
				t.Fatalf("fidelity %q: unexpectedly invalid: %v", f, err)
			}
		}
		k := sp.Key(testVersion)
		if prev, dup := keys[k]; dup {
			t.Errorf("fidelity %q: key collides with %q", f, prev)
		}
		keys[k] = f
	}
	// Case-folding on the wire: "FLOW" and "flow" are the same experiment.
	a := Spec{Family: "scale", Fidelity: "FLOW"}.Normalized().Key(testVersion)
	b := Spec{Family: "scale", Fidelity: "flow"}.Normalized().Key(testVersion)
	if a != b {
		t.Error("fidelity case-folding leaked into the key")
	}
	// The key of a spec with no fidelity must be byte-for-byte the hash of
	// the pre-fidelity encoding (no new field emitted when empty), so old
	// cache entries stay addressable.
	old := Spec{Family: "fig11", Seed: 1}.Normalized()
	if got := old.Key(testVersion); got != oldSchemaKey(t, old) {
		t.Error("empty fidelity changed the canonical encoding of existing specs")
	}
}

// oldSchemaKey reproduces the pre-fidelity hash input by hand.
func oldSchemaKey(t *testing.T, sp Spec) string {
	t.Helper()
	doc := fmt.Sprintf(`{"schema":%q,"code":%q,"family":%q,"seed":%d}`,
		KeySchema, testVersion, sp.Family, sp.Seed)
	sum := sha256.Sum256([]byte(doc))
	return hex.EncodeToString(sum[:])
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"family":"fig11","sheme":"DSH"}`)); err == nil {
		t.Fatal("ParseSpec accepted a misspelled field")
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Family: "fig99"},
		{Family: "fig11", Scheme: "BOTH"},
		{Family: "fig11", Scheme: "DSH"}, // no per-scheme rows in fig11
		{Family: "fig11", Faults: &dshsim.FaultScenario{Name: "x"}},
		{Family: "fig11", Workers: -1},
		{Family: "fig11", LPWorkers: -2},
		{Family: "fig11", Fidelity: "flow"}, // fidelity is a scale-only knob
		{Family: "scale", Fidelity: "fluid"},
	}
	for _, sp := range bad {
		if err := sp.Normalized().Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", sp)
		}
	}
	good := []Spec{
		{Family: "fig4"},
		{Family: "fig12", Scheme: "sih"},
		{Family: "faults", Scheme: "DSH", Faults: &dshsim.FaultScenario{Name: "x"}},
		{Family: "fig11", Workers: 8, LPWorkers: 4, Full: true, Seed: 3},
		{Family: "scale", Fidelity: "hybrid"},
	}
	for _, sp := range good {
		if err := sp.Normalized().Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", sp, err)
		}
	}
}
