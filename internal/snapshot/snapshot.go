// Package snapshot defines the container format for PRISM machine
// checkpoints and testcases: a versioned, self-describing envelope
// around a canonical JSON payload, with an integrity hash and a
// structural schema fingerprint.
//
// The package is deliberately model-free: it knows nothing about
// machines, caches or directories. Each model package defines its own
// exported-state types; core assembles them into one aggregate struct
// and hands it here. Keeping the format layer separate means the
// encoding rules — canonicalization, hashing, versioning — are testable
// without building a machine.
//
// Format rules:
//
//   - The payload is encoded with encoding/json. Determinism therefore
//     requires that state structs avoid maps (json sorts map keys as
//     strings, so integer keys order as "10" < "2"); every model
//     package exports sorted slices of entry structs instead.
//   - Version changes whenever the payload schema changes shape. The
//     schema fingerprint (a hash over the reflected structure of the
//     payload type) is stored alongside the version, and a CI test
//     pins the (version, fingerprint) pair: changing the structs
//     without bumping Version fails the build.
package snapshot

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
)

// Magic identifies a PRISM snapshot or testcase stream.
const Magic = "PRISMSNAP"

// Envelope wraps one encoded payload.
type Envelope struct {
	Magic   string `json:"magic"`
	Kind    string `json:"kind"`    // "checkpoint" or "testcase"
	Version int    `json:"version"` // payload schema version
	Schema  string `json:"schema"`  // structural fingerprint of the payload type
	SHA256  string `json:"sha256"`  // hex hash of the raw payload bytes

	Payload json.RawMessage `json:"payload"`
}

// Encode marshals payload into a versioned envelope and writes it to w
// as indented JSON (stable, diffable, committable to testdata).
func Encode(w io.Writer, kind string, version int, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("snapshot: encode payload: %w", err)
	}
	sum := sha256.Sum256(raw)
	env := Envelope{
		Magic:   Magic,
		Kind:    kind,
		Version: version,
		Schema:  Fingerprint(payload),
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: raw,
	}
	out, err := json.MarshalIndent(&env, "", " ")
	if err != nil {
		return fmt.Errorf("snapshot: encode envelope: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// EncodeGzip is Encode behind a gzip layer — the format for files
// whose payload embeds a full machine checkpoint, where the indented
// JSON runs to megabytes. Go's gzip writer emits no timestamp, so the
// output is as deterministic as Encode's. Decode handles both forms
// transparently.
func EncodeGzip(w io.Writer, kind string, version int, payload any) error {
	gz := gzip.NewWriter(w)
	if err := Encode(gz, kind, version, payload); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// Decode reads an envelope from r, checks magic, kind, version and
// integrity hash, and unmarshals the payload into out (a pointer).
// The schema fingerprint must match the current shape of out's type:
// a mismatch means the stream was written by a different payload
// schema than the code now compiled in, even if Version was not
// bumped — decoding such a stream would silently zero-fill.
func Decode(r io.Reader, kind string, version int, out any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("snapshot: read: %w", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("snapshot: gunzip: %w", err)
		}
		if data, err = io.ReadAll(gz); err != nil {
			return fmt.Errorf("snapshot: gunzip: %w", err)
		}
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("snapshot: decode envelope: %w", err)
	}
	if env.Magic != Magic {
		return fmt.Errorf("snapshot: bad magic %q", env.Magic)
	}
	if env.Kind != kind {
		return fmt.Errorf("snapshot: kind %q, want %q", env.Kind, kind)
	}
	if env.Version != version {
		return fmt.Errorf("snapshot: version %d, want %d (schema changed; re-create the file)", env.Version, version)
	}
	// The envelope is written indented, which re-indents the embedded
	// payload; the hash is over the canonical (compact) form.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return fmt.Errorf("snapshot: compact payload: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return fmt.Errorf("snapshot: payload hash mismatch (corrupt stream)")
	}
	if fp := Fingerprint(out); env.Schema != fp {
		return fmt.Errorf("snapshot: schema fingerprint %s does not match compiled type %s; bump the version", env.Schema, fp)
	}
	dec := json.NewDecoder(bytes.NewReader(env.Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("snapshot: decode payload: %w", err)
	}
	return nil
}

// HashBytes returns the hex SHA-256 of data — the helper testcases use
// for expected-results hashes.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Fingerprint computes a structural hash of v's type: field names,
// declared order and types, recursively. Two builds agree on the
// fingerprint iff their payload structs have the same shape, so it
// detects schema drift that version numbers alone would miss.
//
// A type's shape is fixed for the life of the process, so each type is
// walked once, on first use, and its fingerprint is served from a memo
// afterwards (prismd's cache key and every Encode/Decode ask again).
func Fingerprint(v any) string {
	t := reflect.TypeOf(v)
	for t != nil && t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if fp, ok := fingerprints.Load(t); ok {
		return fp.(string)
	}
	fp, _ := fingerprints.LoadOrStore(t, walkFingerprint(t))
	return fp.(string)
}

// fingerprints memoizes Fingerprint: reflect.Type → string.
var fingerprints sync.Map

// walkFingerprint hashes one walk of t's structure.
func walkFingerprint(t reflect.Type) string {
	var b bytes.Buffer
	walkType(&b, t, map[reflect.Type]bool{})
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

func walkType(b *bytes.Buffer, t reflect.Type, seen map[reflect.Type]bool) {
	if t == nil {
		b.WriteString("nil")
		return
	}
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		b.WriteString(t.Kind().String())
		b.WriteByte('(')
		walkType(b, t.Elem(), seen)
		b.WriteByte(')')
	case reflect.Map:
		b.WriteString("map(")
		walkType(b, t.Key(), seen)
		b.WriteByte(',')
		walkType(b, t.Elem(), seen)
		b.WriteByte(')')
	case reflect.Struct:
		if seen[t] {
			b.WriteString("rec:" + t.Name())
			return
		}
		seen[t] = true
		b.WriteString("struct " + t.Name() + "{")
		fields := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			var fb bytes.Buffer
			fb.WriteString(f.Name)
			fb.WriteByte(':')
			walkType(&fb, f.Type, seen)
			fields = append(fields, fb.String())
		}
		// Field order is part of the JSON encoding, but sort here so
		// pure reorderings (which decode identically with named
		// fields) do not count as drift.
		sort.Strings(fields)
		for _, f := range fields {
			b.WriteString(f)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	default:
		b.WriteString(t.Kind().String())
	}
}
