// Command prismd serves the PRISM experiment gateway and talks to it:
// a long-running HTTP/JSON daemon that queues policy-sweep jobs onto
// the harness worker pool, caches results by content address, and
// streams job progress over SSE — plus thin client subcommands.
//
// Usage:
//
//	prismd serve  [-addr 127.0.0.1:8077] [-queue 64] [-jobs 1] [-job-workers 0] [-cache 256] [-drain-timeout 0]
//	prismd submit [-addr URL] [-size ci] [-apps a,b] [-policies p,q] [-cap 0.7]
//	              [-dram-pit] [-faults spec] [-metrics] [-sample N] [-wait] [-csv out.csv]
//	prismd status [-addr URL] [job-id]
//	prismd cancel [-addr URL] <job-id>
//
// serve exits 0 on SIGTERM/SIGINT after draining: intake stops (new
// submits get 503), queued and running jobs finish, then the process
// exits. A second signal aborts in-flight jobs at their next cell
// boundary.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prism/internal/harness"
	"prism/internal/server"
	"prism/internal/server/client"
)

func main() {
	defer harness.HandlePanic("prismd")
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

const usage = `usage:
  prismd serve  [-addr 127.0.0.1:8077] [-queue N] [-jobs N] [-job-workers N] [-cache N] [-drain-timeout D]
  prismd submit [-addr URL] [spec flags] [-wait] [-csv out.csv]
  prismd status [-addr URL] [job-id]
  prismd cancel [-addr URL] <job-id>`

// run is the testable entry point; it returns the process exit code.
// sig delivers shutdown signals to serve (tests inject their own).
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, stderr, sig)
	case "submit":
		return runSubmit(args[1:], stdout, stderr)
	case "status":
		return runStatus(args[1:], stdout, stderr)
	case "cancel":
		return runCancel(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "prismd: unknown command %q\n%s\n", args[0], usage)
	return 2
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "prismd:", err)
	return 1
}

func runServe(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := harness.NewFlagSet("serve", stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 64, "job queue depth (submits beyond it are rejected)")
	jobs := fs.Int("jobs", 1, "jobs executing concurrently")
	jobWorkers := fs.Int("job-workers", 0, "harness workers per job (0 = all cores)")
	cache := fs.Int("cache", 256, "result cache entries")
	drainTimeout := fs.Duration("drain-timeout", 0, "max time to wait for in-flight jobs on shutdown (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prismd: serve takes no arguments (got %q)\n", fs.Args())
		return 2
	}

	srv := server.New(server.Config{
		QueueDepth:   *queue,
		Jobs:         *jobs,
		JobWorkers:   *jobWorkers,
		CacheEntries: *cache,
		Log:          stderr,
	})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, err)
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The ready line the smoke script and tests wait for.
	fmt.Fprintf(stdout, "prismd: listening on http://%s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return fail(stderr, err)
	case s := <-sig:
		fmt.Fprintf(stderr, "prismd: %v received; draining (new submits rejected)\n", s)
	}

	drainCtx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *drainTimeout > 0 {
		drainCtx, cancel = context.WithTimeout(drainCtx, *drainTimeout)
	}
	defer cancel()
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(stderr, "prismd: second signal; aborting in-flight jobs")
			srv.Abort()
		}
	}()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "prismd: drain: %v\n", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	hs.Shutdown(shutCtx) //nolint:errcheck // lingering SSE clients are cut off
	fmt.Fprintln(stderr, "prismd: drained; exiting")
	return 0
}

// csvList splits a comma-separated flag, dropping empty items.
func csvList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func runSubmit(args []string, stdout, stderr io.Writer) int {
	fs := harness.NewFlagSet("submit", stderr)
	addr := fs.String("addr", "http://127.0.0.1:8077", "prismd base URL")
	size := fs.String("size", "", "data-set size: "+strings.Join(harness.SizeNames, "|")+" (default ci)")
	apps := fs.String("apps", "", "comma-separated app subset (default all)")
	policies := fs.String("policies", "", "comma-separated policy subset (default all)")
	capFrac := fs.Float64("cap", 0, "page-cache cap fraction (default 0.70)")
	dramPIT := fs.Bool("dram-pit", false, "model the PIT in DRAM (10-cycle access)")
	faults := fs.String("faults", "", "fault-injection spec (see prismsim -faults)")
	metricsOn := fs.Bool("metrics", false, "collect per-cell telemetry exports")
	sample := fs.Uint64("sample", 0, "sample interval metrics every N cycles (implies -metrics)")
	wait := fs.Bool("wait", false, "stream job progress and wait for completion")
	csvOut := fs.String("csv", "", "write the result CSV here (\"-\" = stdout; implies -wait)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prismd: submit takes no arguments (got %q)\n", fs.Args())
		return 2
	}

	c := client.New(*addr)
	spec := &harness.Spec{
		Size:        *size,
		Apps:        csvList(*apps),
		Policies:    csvList(*policies),
		CapFraction: *capFrac,
		Faults:      *faults,
		Metrics:     *metricsOn,
		SampleEvery: *sample,
	}
	if *dramPIT {
		spec.PITAccess = 10
	}
	st, err := c.Submit(spec)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "job: %s\n", st.ID)

	if *wait || *csvOut != "" {
		st, err = c.Wait(context.Background(), st.ID, stderr)
		if err != nil {
			return fail(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "state: %s\n", st.State)
	fmt.Fprintf(stdout, "cached: %v\n", st.Cached)
	if st.Error != "" {
		fmt.Fprintf(stdout, "error: %s\n", st.Error)
	}
	if st.State != server.StateDone {
		if st.State.Terminal() {
			return 1
		}
		return 0 // queued/running fire-and-forget submit
	}
	if *csvOut != "" {
		data, err := c.ResultCSV(st.ID)
		if err != nil {
			return fail(stderr, err)
		}
		if *csvOut == "-" {
			stdout.Write(data) //nolint:errcheck
		} else if err := os.WriteFile(*csvOut, data, 0o644); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs := harness.NewFlagSet("status", stderr)
	addr := fs.String("addr", "http://127.0.0.1:8077", "prismd base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := client.New(*addr)
	switch fs.NArg() {
	case 0:
		jobs, err := c.Jobs()
		if err != nil {
			return fail(stderr, err)
		}
		for _, j := range jobs {
			line := fmt.Sprintf("%s  %-8s  digest %.12s…", j.ID, j.State, j.Digest)
			if j.Cached {
				line += "  (cached)"
			}
			if j.Error != "" {
				line += "  " + j.Error
			}
			fmt.Fprintln(stdout, line)
		}
		return 0
	case 1:
		st, err := c.Job(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "job: %s\nstate: %s\ncached: %v\ndigest: %s\n", st.ID, st.State, st.Cached, st.Digest)
		if st.Error != "" {
			fmt.Fprintf(stdout, "error: %s\n", st.Error)
		}
		return 0
	}
	fmt.Fprintln(stderr, "usage: prismd status [-addr URL] [job-id]")
	return 2
}

func runCancel(args []string, stdout, stderr io.Writer) int {
	fs := harness.NewFlagSet("cancel", stderr)
	addr := fs.String("addr", "http://127.0.0.1:8077", "prismd base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: prismd cancel [-addr URL] <job-id>")
		return 2
	}
	st, err := client.New(*addr).Cancel(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "job: %s\nstate: %s\n", st.ID, st.State)
	return 0
}
