// Package serve is the sweep service behind cmd/dshserve: an HTTP/JSON
// job-queue server (stdlib only) that accepts experiment specs, schedules
// them across the dshsim sweep executor, and content-addresses the results
// so a repeated or overlapping sweep is a cache hit instead of a re-run.
//
// The layering, bottom up:
//
//   - Spec (this file): the client-facing experiment description and its
//     canonical content key — a SHA-256 over the normalized semantic
//     fields plus the code version, the identity every other layer keys on.
//   - Execute (runner.go): spec → dshsim.RunFamily → canonical result
//     JSON. dshbench -json runs the same function, which is what makes a
//     server result byte-identical to a CLI run of the same spec.
//   - Cache (cache.go): content-addressed on-disk store with an in-memory
//     LRU front.
//   - Server (server.go): bounded queue + workers + HTTP surface +
//     graceful drain with queue checkpointing; Metrics (metrics.go) is its
//     Prometheus text exposition.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"

	"dsh/dshsim"
)

// KeySchema versions the content-key derivation. Bump it whenever the
// canonical spec encoding, the normalization rules, or the result encoding
// change incompatibly: the hash input embeds it, so old cache entries
// simply stop being addressable instead of being served with stale shapes.
const KeySchema = "dshserve-key/v1"

// Spec describes one experiment request. Semantic fields (Family, Full,
// Seed, Scheme, Faults) select *what* is computed and are part of the
// content key; execution knobs (Workers, LPWorkers) only select *how* it
// is computed, so a client asking for the same experiment with a different
// worker count still hits the cache. The one exception is which engine
// runs: the classic engine (LPWorkers 0) and the partitioned engine
// (LPWorkers ≥ 1) may order same-instant events differently and so give
// different rows, while every LPWorkers ≥ 1 is bit-identical to every
// other. The key therefore carries one bit, partitioned = LPWorkers > 0.
type Spec struct {
	// Family is the experiment family (dshsim.Families: fig4 … faults).
	Family string `json:"family"`
	// Full runs the paper-scale configuration instead of the reduced one.
	Full bool `json:"full,omitempty"`
	// Seed is the workload seed; 0 normalizes to 1 (the dshbench default),
	// so an omitted seed and an explicit seed 1 are the same experiment.
	Seed int64 `json:"seed,omitempty"`
	// Scheme restricts row-per-scheme families (fig12, faults) to one
	// headroom mode: "SIH" or "DSH", case-insensitive; empty keeps both.
	// It changes the rows a result contains, so it is semantic.
	Scheme string `json:"scheme,omitempty"`
	// Fidelity selects the simulation granularity of a family with that
	// dimension ("packet", "flow", or "hybrid"; empty = the family
	// default). It
	// changes every FCT a result contains, so it is semantic — and being
	// omitempty everywhere, pre-fidelity specs keep their content keys.
	Fidelity string `json:"fidelity,omitempty"`
	// Faults replaces the built-in fault classes of a family that takes a
	// fault scenario.
	Faults *dshsim.FaultScenario `json:"faults,omitempty"`

	// Workers bounds sweep-point concurrency inside the job (0 = all
	// cores) and never affects results. LPWorkers > 0 selects the
	// intra-run partitioned engine; only that choice, not the count,
	// affects results and the content key (see dshsim ExpOptions).
	Workers   int `json:"workers,omitempty"`
	LPWorkers int `json:"lpWorkers,omitempty"`
}

// ParseSpec decodes a spec from client JSON, rejecting unknown fields so a
// typo ("sheme") fails loudly instead of silently running — and caching —
// a different experiment than the client meant.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("serve: parse spec: %w", err)
	}
	return sp, nil
}

// Normalized returns the spec with every semantic field in canonical form:
// trimmed lower-case family, upper-case scheme, defaulted seed. Two specs
// that normalize equal are the same experiment.
func (sp Spec) Normalized() Spec {
	sp.Family = strings.ToLower(strings.TrimSpace(sp.Family))
	sp.Scheme = strings.ToUpper(strings.TrimSpace(sp.Scheme))
	sp.Fidelity = strings.ToLower(strings.TrimSpace(sp.Fidelity))
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// schemeFamilies are the families whose results carry one row per headroom
// scheme and therefore support the Scheme filter.
var schemeFamilies = map[string]bool{"fig12": true, "faults": true}

// Validate checks a normalized spec against the family table.
func (sp Spec) Validate() error {
	fam, ok := dshsim.LookupFamily(sp.Family)
	if !ok {
		return fmt.Errorf("serve: unknown family %q (have %v)", sp.Family, dshsim.Families())
	}
	if sp.Seed < 0 {
		return fmt.Errorf("serve: seed must be non-negative, got %d", sp.Seed)
	}
	if sp.Workers < 0 || sp.LPWorkers < 0 {
		return fmt.Errorf("serve: workers and lpWorkers must be non-negative")
	}
	switch sp.Scheme {
	case "":
	case string(dshsim.SIH), string(dshsim.DSH):
		if !schemeFamilies[sp.Family] {
			return fmt.Errorf("serve: family %q has no per-scheme rows; scheme filter applies to fig12 and faults only", sp.Family)
		}
	default:
		return fmt.Errorf("serve: unknown scheme %q (want SIH or DSH)", sp.Scheme)
	}
	if sp.Fidelity != "" {
		if !dshsim.ValidFidelity(sp.Fidelity) {
			return fmt.Errorf("serve: unknown fidelity %q (want one of %v)", sp.Fidelity, dshsim.Fidelities())
		}
		if !fam.HasFidelity {
			return fmt.Errorf("serve: family %q has no fidelity dimension", sp.Family)
		}
	}
	if sp.Faults != nil && !fam.TakesFaults {
		return fmt.Errorf("serve: family %q does not accept a fault scenario", sp.Family)
	}
	if err := dshsim.ValidateFaults(dshsim.ExpOptions{Full: sp.Full}, sp.Faults); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// keySpec is the hash input: semantic fields plus the engine bit, in a
// fixed struct order, plus the key-schema tag and code version. Partitioned
// is omitempty, so a classic-engine spec hashes only its semantic fields.
// encoding/json emits
// struct fields in declaration order and omits the zero-valued optional
// ones, so the encoding is canonical by construction — client JSON never
// reaches the hash, only the decoded and normalized struct does, which is
// what makes key order and default-field omission irrelevant.
type keySpec struct {
	Schema      string                `json:"schema"`
	Code        string                `json:"code"`
	Family      string                `json:"family"`
	Full        bool                  `json:"full,omitempty"`
	Seed        int64                 `json:"seed"`
	Scheme      string                `json:"scheme,omitempty"`
	Fidelity    string                `json:"fidelity,omitempty"`
	Faults      *dshsim.FaultScenario `json:"faults,omitempty"`
	Partitioned bool                  `json:"partitioned,omitempty"`
}

// Key returns the content address of the spec's result under the given
// code version: hex SHA-256 of the canonical semantic encoding. The spec
// must already be normalized.
func (sp Spec) Key(codeVersion string) string {
	b, err := json.Marshal(keySpec{
		Schema:      KeySchema,
		Code:        codeVersion,
		Family:      sp.Family,
		Full:        sp.Full,
		Seed:        sp.Seed,
		Scheme:      sp.Scheme,
		Fidelity:    sp.Fidelity,
		Faults:      sp.Faults,
		Partitioned: sp.LPWorkers > 0,
	})
	if err != nil {
		// keySpec is a closed struct of marshalable fields; this is
		// unreachable short of memory corruption.
		panic(fmt.Sprintf("serve: canonical spec encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CanonicalJSON returns the normalized semantic spec and the engine bit (no
// worker counts) as canonical JSON — the form echoed inside result
// envelopes.
func (sp Spec) CanonicalJSON() json.RawMessage {
	b, err := json.Marshal(struct {
		Family      string                `json:"family"`
		Full        bool                  `json:"full,omitempty"`
		Seed        int64                 `json:"seed"`
		Scheme      string                `json:"scheme,omitempty"`
		Fidelity    string                `json:"fidelity,omitempty"`
		Faults      *dshsim.FaultScenario `json:"faults,omitempty"`
		Partitioned bool                  `json:"partitioned,omitempty"`
	}{sp.Family, sp.Full, sp.Seed, sp.Scheme, sp.Fidelity, sp.Faults, sp.LPWorkers > 0})
	if err != nil {
		panic(fmt.Sprintf("serve: canonical spec encoding failed: %v", err))
	}
	return b
}

// CodeVersion identifies the code that computes results: the VCS revision
// when the binary was built from a checkout (suffixed when the tree was
// dirty), else the module version, else "dev". It is part of every content
// key, so results computed by different code never alias.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			return rev + "+dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "dev"
}
