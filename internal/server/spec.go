// Package server implements prismd, the long-running experiment
// gateway: an HTTP/JSON data plane that accepts experiment specs,
// queues them onto the existing harness worker pool, streams status
// and log lines back over SSE, and serves repeated submissions of an
// identical spec from a content-addressed look-aside result cache.
//
// The cache is correct by construction: every run is CI-gated
// byte-deterministic (results_ci.csv, metrics_ci.json), so two jobs
// whose canonicalized specs and simulator schema fingerprints agree
// must produce byte-identical CSV and metrics exports. The cache key
// therefore hashes the normalized spec together with
// testcase.SchemaFingerprint() — a model-state or knob-schema change
// invalidates every cached result automatically.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/testcase"
)

// schemaMaterial is everything besides the spec that decides whether a
// cached result is still valid: the simulator's serialized-state
// fingerprint, the CSV row format, and the metrics export schema.
func schemaMaterial() string {
	return testcase.SchemaFingerprint() + "+csv/" + harness.CSVHeader + "+metrics/v" + strconv.Itoa(metrics.Schema)
}

// Digest returns a spec's content address: SHA-256 over the canonical
// JSON of the normalized spec plus the schema material. Call only
// after Normalize.
func Digest(s *harness.Spec) string { return digestWith(s, schemaMaterial()) }

// digestWith computes the digest against an explicit schema string —
// split out so tests can prove a schema bump changes the key.
func digestWith(s *harness.Spec, schema string) string {
	canonical, err := json.Marshal(s)
	if err != nil {
		// Spec has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	sum := sha256.Sum256(append(append(canonical, 0), schema...))
	return hex.EncodeToString(sum[:])
}
