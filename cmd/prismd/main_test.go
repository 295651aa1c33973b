package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the serve goroutine
// writes while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// cli runs one prismd subcommand, returning exit code and output.
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut, nil)
	return code, out.String(), errOut.String()
}

// TestServeEndToEnd drives the full daemon through the CLI: boot,
// submit (fresh then cached), status, cancel of a missing job, and a
// SIGTERM drain to exit 0.
func TestServeEndToEnd(t *testing.T) {
	sig := make(chan os.Signal, 1)
	var serveOut, serveErr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"serve", "-addr", "127.0.0.1:0"}, &serveOut, &serveErr, sig)
	}()

	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no ready line; stdout %q, stderr %q", serveOut.String(), serveErr.String())
		}
		if s := serveOut.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			url = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	code, out, errOut := cli(t, "submit", "-addr", url,
		"-size", "mini", "-apps", "fft", "-policies", "SCOMA", "-csv", "-")
	if code != 0 {
		t.Fatalf("submit: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "state: done") || !strings.Contains(out, "cached: false") {
		t.Errorf("fresh submit output:\n%s", out)
	}
	if !strings.Contains(out, "app,policy,") || !strings.Contains(out, "fft,SCOMA,") {
		t.Errorf("-csv - did not print the result CSV:\n%s", out)
	}

	code, out, _ = cli(t, "submit", "-addr", url,
		"-size", "mini", "-apps", "fft", "-policies", "SCOMA", "-wait")
	if code != 0 || !strings.Contains(out, "cached: true") {
		t.Errorf("resubmit: exit %d, output:\n%s", code, out)
	}

	code, out, _ = cli(t, "status", "-addr", url)
	if code != 0 || !strings.Contains(out, "j0001") || !strings.Contains(out, "(cached)") {
		t.Errorf("status list: exit %d, output:\n%s", code, out)
	}
	code, out, _ = cli(t, "status", "-addr", url, "j0001")
	if code != 0 || !strings.Contains(out, "state: done") {
		t.Errorf("status detail: exit %d, output:\n%s", code, out)
	}

	// Server-side errors are one-line failures, not panics.
	code, _, errOut = cli(t, "cancel", "-addr", url, "j9999")
	if code != 1 || !strings.Contains(errOut, "no job") {
		t.Errorf("cancel of missing job: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = cli(t, "submit", "-addr", url, "-size", "huge")
	if code != 1 || !strings.Contains(errOut, "mini") {
		t.Errorf("bad size: exit %d, stderr %q (want the valid-sizes list)", code, errOut)
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d after SIGTERM\nstderr:\n%s", code, serveErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not drain after SIGTERM\nstderr:\n%s", serveErr.String())
	}
	if s := serveErr.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "drained; exiting") {
		t.Errorf("drain lifecycle not logged:\n%s", s)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"serve", "-addr"},                 // flag needs a value
		{"serve", "stray-arg"},             // serve takes none
		{"submit", "-nosuch"},              // unknown flag
		{"status", "-addr", "x", "a", "b"}, // too many args
		{"cancel"},                         // missing job id
		{"submit", "-case", "x.prismcase"}, // a case is not a job spec
	}
	for _, args := range cases {
		if code, _, _ := cli(t, args...); code != 2 {
			t.Errorf("prismd %v: exit %d, want 2", args, code)
		}
	}
}
