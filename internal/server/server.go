package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/testcase"
)

// Config tunes a Server. Zero values mean defaults.
type Config struct {
	// QueueDepth bounds the FIFO job queue (default 64). A submit
	// beyond the bound is rejected with ErrQueueFull, never blocked.
	QueueDepth int
	// Jobs is the number of jobs executing concurrently (default 1:
	// one job at a time, each spread across the harness pool).
	Jobs int
	// JobWorkers is the harness worker count per job (0 = all cores).
	JobWorkers int
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// Log receives the server's own log lines (nil = discard).
	Log io.Writer
}

func (c *Config) defaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
}

// Submission failure modes the HTTP layer maps to status codes.
var (
	ErrDraining  = errors.New("server: draining, not accepting new jobs")
	ErrQueueFull = errors.New("server: job queue full")
)

// Server is the prismd gateway: job queue, worker pool, result cache,
// and the HTTP/JSON + SSE data plane. Create with New, launch workers
// with Start, serve it as an http.Handler, and stop with Drain (or
// Abort for a hard stop).
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // submission order, for listing
	inflight map[string]*Job // digest → live job (single-flight)
	queue    chan *Job
	draining bool
	nextID   int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	busy      atomic.Int64
	submitted atomic.Uint64
	deduped   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64

	reg *metrics.Registry
}

// New builds a server (workers not yet started).
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheEntries),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
		nextID:   1,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.initMetrics()
	s.initMux()
	return s
}

// initMetrics registers the process-level instruments on an
// internal/metrics registry — the same registry type, export format
// and prismstat tooling the simulation telemetry uses. Every closure
// reads an atomic or a lock-guarded count, so Snapshot is safe from
// any HTTP goroutine.
func (s *Server) initMetrics() {
	s.reg = metrics.NewRegistry()
	n := metrics.MachineScope
	s.reg.GaugeFunc(n, "server", "queue_depth", func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc(n, "server", "queue_capacity", func() float64 { return float64(cap(s.queue)) })
	s.reg.GaugeFunc(n, "server", "workers_total", func() float64 { return float64(s.cfg.Jobs) })
	s.reg.GaugeFunc(n, "server", "workers_busy", func() float64 { return float64(s.busy.Load()) })
	s.reg.GaugeFunc(n, "server", "worker_utilization", func() float64 {
		return float64(s.busy.Load()) / float64(s.cfg.Jobs)
	})
	s.reg.CounterFunc(n, "server", "jobs_submitted", s.submitted.Load)
	s.reg.CounterFunc(n, "server", "jobs_deduped", s.deduped.Load)
	s.reg.CounterFunc(n, "server", "jobs_completed", s.completed.Load)
	s.reg.CounterFunc(n, "server", "jobs_failed", s.failed.Load)
	s.reg.CounterFunc(n, "server", "jobs_canceled", s.canceled.Load)
	s.reg.CounterFunc(n, "cache", "hits", s.cache.Hits)
	s.reg.CounterFunc(n, "cache", "misses", s.cache.Misses)
	s.reg.GaugeFunc(n, "cache", "entries", func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc(n, "cache", "hit_rate", func() float64 {
		h, m := s.cache.Hits(), s.cache.Misses()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Jobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
}

// Drain stops intake and waits for every queued and running job to
// finish, then for the workers to exit — the SIGTERM path. If ctx
// expires first, in-flight jobs are aborted at their next cell
// boundary and Drain returns the context error after the workers stop.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	stopped := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
		s.logf("drained")
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-stopped
		s.logf("drain timed out; in-flight jobs aborted")
		return ctx.Err()
	}
}

// Abort is the hard stop: cancel every running job, drop the queue,
// and wait for the workers. Used by tests and the double-SIGTERM path.
func (s *Server) Abort() {
	s.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the error is the canceled ctx by construction
}

// Submit normalizes and enqueues a spec. Identical live submissions
// coalesce onto the running job (single-flight); identical completed
// submissions are served from the result cache as an immediately-done
// job. The returned error is a spec validation error, ErrDraining, or
// ErrQueueFull.
func (s *Server) Submit(spec *harness.Spec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	digest := Digest(spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if live, ok := s.inflight[digest]; ok {
		s.deduped.Add(1)
		s.logf("submit deduplicated onto live job %s (digest %.12s…)", live.ID, digest)
		return live, nil
	}
	id := fmt.Sprintf("j%04d", s.nextID)
	job := newJob(id, spec, digest)
	if res, ok := s.cache.Get(digest); ok {
		job.complete(res, true)
		s.addLocked(job)
		s.submitted.Add(1)
		s.completed.Add(1)
		s.logf("job %s done (cache hit, digest %.12s…)", id, digest)
		return job, nil
	}
	if s.draining {
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
	default:
		return nil, ErrQueueFull
	}
	s.addLocked(job)
	s.inflight[digest] = job
	s.submitted.Add(1)
	s.logf("job %s queued (digest %.12s…, %d×%d cells)", id, digest, len(spec.Apps), len(spec.Policies))
	return job, nil
}

// maxJobs bounds the job table. Every submission, cache hits included,
// creates a job record, so without a bound a long-running prismd grows
// by one record per request.
const maxJobs = 1024

// addLocked records a new job and retires the oldest terminal jobs
// beyond maxJobs, the way the result cache evicts its oldest entries.
// A queued or running job is never retired; a retired ID answers 404.
// Callers hold mu.
func (s *Server) addLocked(job *Job) {
	s.nextID++
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	for i := 0; len(s.order) > maxJobs && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		if i == 0 {
			s.order = s.order[1:]
		} else {
			s.order = append(s.order[:i], s.order[i+1:]...)
		}
	}
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel aborts the identified job. The bool reports whether the job
// existed; the job's state says whether the cancel landed before a
// terminal state.
func (s *Server) Cancel(id string) (*Job, bool) {
	job, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	if job.Cancel() && job.Status(false).State == StateCanceled {
		// Canceled while still queued: terminal right away. (A running
		// job reaches StateCanceled later, in runJob, which does this
		// bookkeeping then.)
		s.canceled.Add(1)
		s.removeInflight(job)
		s.logf("job %s canceled while queued", id)
	}
	return job, true
}

func (s *Server) removeInflight(job *Job) {
	s.mu.Lock()
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	s.mu.Unlock()
}

// runJob executes one dequeued job end to end.
func (s *Server) runJob(job *Job) {
	defer s.removeInflight(job)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.tryStart(cancel) {
		return // canceled while queued; already accounted
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	s.logf("job %s running", job.ID)

	opts := harness.Options{
		Spec:    *job.Spec,
		Log:     logWriter{job},
		Workers: s.cfg.JobWorkers,
		Context: ctx,
	}
	var metricsDir string
	if job.Spec.Metrics {
		var err error
		metricsDir, err = os.MkdirTemp("", "prismd-"+job.ID+"-")
		if err != nil {
			s.failJob(job, err)
			return
		}
		defer os.RemoveAll(metricsDir)
		opts.MetricsDir = metricsDir
	}

	runs, err := harness.Run(opts)
	switch {
	case err != nil && ctx.Err() != nil:
		job.setState(StateCanceled, err.Error())
		s.canceled.Add(1)
		s.logf("job %s canceled (%d apps completed)", job.ID, len(runs))
		return
	case err != nil:
		s.failJob(job, err)
		return
	}

	res := &Result{CSV: []byte(harness.CSVString(runs)), Caps: map[string][]int{}}
	for _, ar := range runs {
		res.Caps[ar.App] = ar.Caps
	}
	if metricsDir != "" {
		if res.Metrics, err = readMetricsCells(metricsDir, job.Spec); err != nil {
			s.failJob(job, err)
			return
		}
	}
	s.cache.Put(job.Digest, res)
	// Leave the single-flight table before publishing: once a waiter
	// sees the job done, an identical resubmission is a cache hit, not
	// a dedup onto this finished job.
	s.removeInflight(job)
	// Count the job before publishing it, so a client that sees it done
	// also sees it in jobs_completed.
	s.completed.Add(1)
	job.complete(res, false)
	s.logf("job %s done (%d cells)", job.ID, strings.Count(string(res.CSV), "\n")-1)
}

func (s *Server) failJob(job *Job, err error) {
	job.setState(StateFailed, err.Error())
	s.failed.Add(1)
	s.logf("job %s failed: %v", job.ID, err)
}

// readMetricsCells collects the per-cell telemetry exports the sweep
// wrote, in deterministic spec order (apps major, policies minor —
// the same order the CSV rows use). Cells are named like the files
// (harness.Cell.Name).
func readMetricsCells(dir string, spec *harness.Spec) ([]MetricsCell, error) {
	var out []MetricsCell
	for _, app := range spec.Apps {
		for _, pol := range spec.Policies {
			cell := spec.Cell(app, pol, nil).Name()
			data, err := os.ReadFile(filepath.Join(dir, cell+".json"))
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("server: metrics cell %s: %w", cell, err)
			}
			out = append(out, MetricsCell{Cell: cell, JSON: data})
		}
	}
	return out, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "prismd: "+format+"\n", args...)
}

// ---------------------------------------------------------------------------
// HTTP data plane and admin surface
// ---------------------------------------------------------------------------

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) initMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result.csv", s.handleResultCSV)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics.json", s.handleMetricsBundle)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics/{cell}", s.handleMetricsCell)
	s.mux.HandleFunc("GET /v1/jobs/{id}/case/{cell}", s.handleCase)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics.json", s.handleServerMetrics)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// PrismcaseContentType marks a response body holding a .prismcase
// stream (the /case/{cell} export).
const PrismcaseContentType = "application/x-prismcase"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.Spec
	if err := decodeSpec(r.Body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	job, err := s.Submit(&spec)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		st := job.Status(true)
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

// decodeSpec reads exactly one JSON spec from body. A key Spec does not
// know (a misspelled "polices" would otherwise silently mean "every
// policy"), anything after the object, and any other body — a
// .prismcase stream included — are errors.
func decodeSpec(body io.Reader, spec *harness.Spec) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the spec object")
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return job, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status(true))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status(false))
}

func (s *Server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res := job.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; no result", job.ID, job.Status(false).State)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(res.CSV) //nolint:errcheck
}

// metricsBundle is the combined telemetry of every cell of one job.
type metricsBundle struct {
	Schema int          `json:"schema"`
	Job    string       `json:"job"`
	Cells  []bundleCell `json:"cells"`
}

type bundleCell struct {
	Cell   string          `json:"cell"`
	Export json.RawMessage `json:"export"`
}

func (s *Server) handleMetricsBundle(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res := job.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; no result", job.ID, job.Status(false).State)
		return
	}
	b := metricsBundle{Schema: metrics.Schema, Job: job.ID, Cells: []bundleCell{}}
	for _, c := range res.Metrics {
		b.Cells = append(b.Cells, bundleCell{Cell: c.Cell, Export: json.RawMessage(c.JSON)})
	}
	writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleMetricsCell(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res := job.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; no result", job.ID, job.Status(false).State)
		return
	}
	cell := strings.TrimSuffix(r.PathValue("cell"), ".json")
	data := res.Cell(cell)
	if data == nil {
		httpError(w, http.StatusNotFound, "job %s has no metrics cell %q (submit with \"metrics\": true?)", job.ID, cell)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}

// handleCase exports one completed cell as a .prismcase skeleton: the
// spec's cell, with the page-cache caps the sizing pass derived, named
// like its metrics export (harness.Cell.Name) and ready for prismcase
// create/run tooling.
func (s *Server) handleCase(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res := job.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; no result", job.ID, job.Status(false).State)
		return
	}
	name := strings.TrimSuffix(r.PathValue("cell"), ".prismcase")
	for _, app := range job.Spec.Apps {
		for _, pol := range job.Spec.Policies {
			cell := job.Spec.Cell(app, pol, res.Caps[app])
			if cell.Name() != name {
				continue
			}
			w.Header().Set("Content-Type", PrismcaseContentType)
			if err := testcase.Write(w, &testcase.Case{Name: name, Cell: cell}); err != nil {
				httpError(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
	}
	httpError(w, http.StatusNotFound, "job %s has no cell %q", job.ID, name)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// handleServerMetrics exports the process-level registry in the same
// schema prismstat consumes.
func (s *Server) handleServerMetrics(w http.ResponseWriter, r *http.Request) {
	ex := &metrics.Export{
		Schema:   metrics.Schema,
		Workload: "prismd",
		Points:   s.reg.Snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	ex.WriteJSON(w) //nolint:errcheck
}

// handleEvents streams the job's event log as Server-Sent Events: the
// full history first (late subscribers see the same stream), then live
// appends until the job reaches a terminal state or the client goes
// away. Event types are "status" (JSON StatusData) and "log" (a raw
// harness progress line); the SSE id field carries the sequence
// number.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		evs, more, terminal := job.EventsFrom(next)
		for _, e := range evs {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, e.Data); err != nil {
				return
			}
			next = e.Seq + 1
		}
		if canFlush {
			flusher.Flush()
		}
		if terminal {
			// The log of a terminal job can no longer grow; the
			// history is drained, so the stream is complete.
			if evs, _, _ := job.EventsFrom(next); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}
