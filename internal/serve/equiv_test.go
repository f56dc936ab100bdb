package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestServerMatchesCLIByteIdentical is the acceptance gate for the sweep
// service: a run executed through the dshserve HTTP surface (submit →
// queue → worker → cache → GET /results) must return byte-identical result
// JSON to the same spec run through `dshbench -json`. The CLI path is
// Execute(spec, CodeVersion(), progress); here both sides pin the same
// code version so the comparison is hermetic — the smoke leg repeats it
// against the real built binaries.
func TestServerMatchesCLIByteIdentical(t *testing.T) {
	const version = "equiv-test"
	// The submitted JSON spells each spec differently from the CLI side
	// (seed omitted, defaults to 1) to keep the canonicalization honest.
	// The partitioned case pins the engine bit: its result is the
	// lpWorkers-1 Execute, not a cached classic one.
	tests := []struct {
		name   string
		spec   Spec
		submit string
	}{
		{"classic", Spec{Family: "fig4", Seed: 1}, `{"family":"fig4"}`},
		{"partitioned", Spec{Family: "fig13", Seed: 1, LPWorkers: 1}, `{"family":"fig13","lpWorkers":1}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// The CLI side: exactly what `dshbench -json` executes.
			want, err := Execute(tt.spec, version, nil)
			if err != nil {
				t.Fatal(err)
			}

			// The server side: real executor (RunFunc nil → Execute), full
			// HTTP round trip.
			_, ts := newTestServer(t, Config{Version: version})
			code, st := postJob(t, ts, tt.submit)
			if code != http.StatusAccepted {
				t.Fatalf("submit: code %d, want 202", code)
			}
			if wantKey := tt.spec.Normalized().Key(version); st.Key != wantKey {
				t.Fatalf("server key %s, want %s", st.Key, wantKey)
			}
			done := waitStatus(t, ts, st.Key, string(jobDone))

			resp, err := http.Get(ts.URL + done.Result)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(got, want) {
				t.Fatalf("server result differs from the CLI path:\nserver: %s\ncli:    %s", got, want)
			}

			// The shared bytes are a well-formed result envelope.
			var env Envelope
			if err := json.Unmarshal(got, &env); err != nil {
				t.Fatal(err)
			}
			if env.Schema != ResultSchema || env.Family != tt.spec.Family || env.Key != st.Key {
				t.Fatalf("envelope %+v", env)
			}
		})
	}
}
