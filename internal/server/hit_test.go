package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// dc64Spec is the 64-node traffic grid of results_scale.csv, as a
// client submits it.
func dc64Spec() Spec {
	return Spec{
		Size: "dc64",
		Apps: []string{
			"kv:keys=8192;ops=128;shards=32",
			"pubsub:rounds=2;topics=64",
			"zipf:ops=512;pages=512",
		},
		Policies: []string{"SCOMA", "Dyn-LRU"},
	}
}

// TestDigestAllocs bounds the cache key's cost: the snapshot schema is
// fingerprinted once per process, not walked again on every request.
func TestDigestAllocs(t *testing.T) {
	s := normalized(t, dc64Spec())
	if n := testing.AllocsPerRun(50, func() { s.Digest() }); n > 12 {
		t.Errorf("Spec.Digest makes %v allocations, want at most 12", n)
	}
}

func BenchmarkSpecNormalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := dc64Spec()
		if err := s.Normalize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecDigest(b *testing.B) {
	s := dc64Spec()
	if err := s.Normalize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Digest()
	}
}

// BenchmarkSubmitCacheHit is one prismd cache hit on the dc64 grid
// through the HTTP handler: decode, normalize, digest, cache lookup and
// the status reply.
func BenchmarkSubmitCacheHit(b *testing.B) {
	spec := dc64Spec()
	body, err := json.Marshal(&spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	srv.cache.Put(spec.Digest(), &Result{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("hit answered %d: %s", rec.Code, rec.Body)
		}
	}
}
