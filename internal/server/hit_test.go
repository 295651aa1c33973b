package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"prism/internal/harness"
)

// dc64Spec is the 64-node traffic grid of results_scale.csv, as a
// client submits it.
func dc64Spec() harness.Spec {
	return harness.Spec{
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
	if n := testing.AllocsPerRun(50, func() { Digest(s) }); n > 12 {
		t.Errorf("Spec.Digest makes %v allocations, want at most 12", n)
	}
}

// TestJobTableBounded: cache hits do not grow the job table without
// bound. 10,000 hits through ServeHTTP leave maxJobs records and a flat
// retained heap, every hit still counts, a retired ID answers 404, and
// a job still queued when the hits arrive is kept.
func TestJobTableBounded(t *testing.T) {
	srv := New(Config{}) // no workers: the first submission stays queued
	t.Cleanup(srv.Abort)
	live, err := srv.Submit(&harness.Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}})
	if err != nil {
		t.Fatal(err)
	}
	spec := dc64Spec()
	body, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	srv.cache.Put(Digest(&spec), &Result{})
	hit := func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("hit answered %d: %s", rec.Code, rec.Body)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const hits = 10000
	hit(2 * maxJobs)
	before := heap()
	hit(hits - 2*maxJobs)
	// Unretired, the remaining hits would keep about 0.9 KB each.
	if grown := heap() - before; grown > 1<<20 {
		t.Errorf("retained heap grew %d bytes over %d hits", grown, hits-2*maxJobs)
	}
	jobs := srv.Jobs()
	if len(jobs) != maxJobs || jobs[0] != live {
		t.Errorf("table holds %d jobs (first %s), want %d with the queued %s first", len(jobs), jobs[0].ID, maxJobs, live.ID)
	}
	if got := srv.completed.Load(); got != hits {
		t.Errorf("jobs_completed %d, want %d", got, hits)
	}
	if got := srv.cache.Hits(); got != hits {
		t.Errorf("cache hits %d, want %d", got, hits)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/j0002", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("retired job j0002 answered %d, want 404", rec.Code)
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
		Digest(&s)
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
	srv.cache.Put(Digest(&spec), &Result{})
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
