// Package client is the Go client for a prismd experiment gateway: it
// speaks the HTTP/JSON data plane (submit, status, cancel, results)
// and parses the SSE event stream. The prismd CLI subcommands and the
// CI smoke job are built on it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"prism/internal/harness"
	"prism/internal/server"
)

// Client talks to one prismd server.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8077"). A trailing slash is tolerated.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// apiError decodes prismd's {"error": "..."} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

func (c *Client) do(method, path string, contentType string, body io.Reader, out interface{}) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a spec and returns the resulting job status — already
// terminal when the result cache had the digest.
func (c *Client) Submit(spec *harness.Spec) (server.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	var st server.Status
	err = c.do("POST", "/v1/jobs", "application/json", bytes.NewReader(body), &st)
	return st, err
}

// Job fetches one job's status (with its normalized spec).
func (c *Client) Job(id string) (server.Status, error) {
	var st server.Status
	err := c.do("GET", "/v1/jobs/"+id, "", nil, &st)
	return st, err
}

// Jobs lists every job on the server in submission order.
func (c *Client) Jobs() ([]server.Status, error) {
	var out []server.Status
	err := c.do("GET", "/v1/jobs", "", nil, &out)
	return out, err
}

// Cancel aborts a job.
func (c *Client) Cancel(id string) (server.Status, error) {
	var st server.Status
	err := c.do("DELETE", "/v1/jobs/"+id, "", nil, &st)
	return st, err
}

// ResultCSV fetches a done job's sweep CSV.
func (c *Client) ResultCSV(id string) ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/v1/jobs/"+id+"/result.csv", "", nil, &raw)
	return raw, err
}

// MetricsBundle fetches a done job's combined per-cell telemetry.
func (c *Client) MetricsBundle(id string) ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/v1/jobs/"+id+"/metrics.json", "", nil, &raw)
	return raw, err
}

// MetricsCell fetches one cell's telemetry export — byte-identical to
// the <cell>.json file a local -metrics run writes, so it feeds
// straight into prismstat.
func (c *Client) MetricsCell(id, cell string) ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/v1/jobs/"+id+"/metrics/"+cell, "", nil, &raw)
	return raw, err
}

// Case fetches one completed cell as a .prismcase skeleton.
func (c *Client) Case(id, cell string) ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/v1/jobs/"+id+"/case/"+cell, "", nil, &raw)
	return raw, err
}

// ServerMetrics fetches the server's own metrics export (queue depth,
// cache hit rate, …) in internal/metrics JSON schema.
func (c *Client) ServerMetrics() ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/metrics.json", "", nil, &raw)
	return raw, err
}

// Health probes /healthz; a draining or unreachable server is an error.
func (c *Client) Health() error {
	return c.do("GET", "/healthz", "", nil, nil)
}

// Events subscribes to a job's SSE stream and calls fn for every
// event, historical and live, until the stream completes (terminal
// job), fn returns an error, or ctx is canceled.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var ev server.Event
	var data []string
	flush := func() error {
		if ev.Type == "" && len(data) == 0 {
			return nil
		}
		ev.Data = strings.Join(data, "\n")
		err := fn(ev)
		ev, data = server.Event{}, nil
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "id: "):
			ev.Seq, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait follows the job's event stream until it reaches a terminal
// state (logging progress lines to log when non-nil) and returns the
// final status.
func (c *Client) Wait(ctx context.Context, id string, log io.Writer) (server.Status, error) {
	err := c.Events(ctx, id, func(e server.Event) error {
		if e.Type == server.EventLog && log != nil {
			fmt.Fprintln(log, e.Data)
		}
		return nil
	})
	if err != nil {
		return server.Status{}, err
	}
	return c.Job(id)
}
