package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prism/internal/harness"
	"prism/internal/server"
)

// The SSE parser must handle replayed history, multi-line data
// payloads, and stream end.
func TestEventsParsing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j0001/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("id: 0\nevent: status\ndata: {\"state\":\"queued\"}\n\n" +
			"id: 1\nevent: log\ndata: line one\ndata: line two\n\n" +
			"id: 2\nevent: status\ndata: {\"state\":\"done\"}\n\n"))
	}))
	defer ts.Close()

	var got []server.Event
	err := New(ts.URL).Events(context.Background(), "j0001", func(e server.Event) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	want := []server.Event{
		{Seq: 0, Type: "status", Data: `{"state":"queued"}`},
		{Seq: 1, Type: "log", Data: "line one\nline two"},
		{Seq: 2, Type: "status", Data: `{"state":"done"}`},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// API errors surface the server's {"error": ...} body and status code.
func TestErrorDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error": "server: job queue full"}`))
	}))
	defer ts.Close()

	_, err := New(ts.URL).Submit(&harness.Spec{})
	if err == nil {
		t.Fatal("Submit returned nil error")
	}
	for _, want := range []string{"job queue full", "429"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
