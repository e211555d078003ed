package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"marion/internal/metrics"
	"marion/internal/trace"
)

// A compiled request must leave a full span tree in the ring,
// retrievable by the ID echoed to the client.
func TestTraceRingCapturesCompile(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8})
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompileResponse](t, w)
	if resp.RequestID == "" {
		t.Fatal("response carries no request ID")
	}
	if hdr := w.Header().Get(RequestIDHeader); hdr != resp.RequestID {
		t.Fatalf("header ID %q != body ID %q", hdr, resp.RequestID)
	}

	lw := get(s, "/tracez")
	if lw.Code != http.StatusOK {
		t.Fatalf("/tracez: %d", lw.Code)
	}
	tz := decode[Tracez](t, lw)
	if tz.Capacity != 8 || len(tz.Traces) != 1 || tz.Traces[0].ID != resp.RequestID {
		t.Fatalf("/tracez = %+v", tz)
	}
	if tz.Traces[0].Outcome != "ok" || tz.Traces[0].Status != http.StatusOK {
		t.Fatalf("trace summary = %+v", tz.Traces[0])
	}

	gw := get(s, "/tracez?id="+resp.RequestID)
	if gw.Code != http.StatusOK {
		t.Fatalf("/tracez?id: %d: %s", gw.Code, gw.Body.String())
	}
	tr := decode[trace.Trace](t, gw)
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"compile", "admission", "lower", "fn:add3"} {
		if !names[want] {
			t.Errorf("trace lacks span %q (have %v)", want, names)
		}
	}
	if cov := tr.Coverage(); cov < 0.5 {
		t.Errorf("span coverage = %v, want >= 0.5 for an in-process compile", cov)
	}

	if nf := get(s, "/tracez?id=nosuch"); nf.Code != http.StatusNotFound {
		t.Errorf("/tracez?id=nosuch: %d, want 404", nf.Code)
	}
}

// A well-formed client-supplied ID is honored; a hostile one is
// replaced, never echoed.
func TestRequestIDValidation(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8})

	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: "client-id.7"})
	resp := decode[CompileResponse](t, w)
	if resp.RequestID != "client-id.7" {
		t.Fatalf("valid client ID not honored: %q", resp.RequestID)
	}
	if _, ok := s.ring.Get("client-id.7"); !ok {
		t.Fatal("trace not retained under the client's ID")
	}

	hostile := `bad id"}\n{"fake`
	w = post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: hostile})
	resp = decode[CompileResponse](t, w)
	if resp.RequestID == hostile || !trace.ValidID(resp.RequestID) {
		t.Fatalf("hostile ID echoed or replacement invalid: %q", resp.RequestID)
	}
}

// Rejected requests get traces and IDs too: the ring must tell the
// story of a shed or failed request, not only successes.
func TestTraceOnRejection(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8})
	w := post(t, s, CompileRequest{Source: addC, Target: "nosuch"}, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad target: %d", w.Code)
	}
	id := w.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("rejection carries no request ID header")
	}
	tr, ok := s.ring.Get(id)
	if !ok {
		t.Fatal("rejection left no trace")
	}
	if tr.Outcome != "bad-request" || tr.Status != http.StatusBadRequest {
		t.Fatalf("rejection trace = outcome %q status %d", tr.Outcome, tr.Status)
	}
}

// TraceRing 0 disables the surface: /tracez is 404, compiles still
// work and carry request IDs.
func TestTracingDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(s, "/tracez"); w.Code != http.StatusNotFound {
		t.Fatalf("/tracez with tracing off: %d, want 404", w.Code)
	}
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d", w.Code)
	}
	if decode[CompileResponse](t, w).RequestID == "" {
		t.Fatal("request ID missing with tracing off")
	}
}

// Every request writes exactly one structured access line with the
// contract's keys, parseable as JSON.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		TraceRing: 8,
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ok := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: "logged-1"})
	if ok.Code != http.StatusOK {
		t.Fatalf("compile: %d", ok.Code)
	}
	bad := post(t, s, CompileRequest{Source: addC, Target: "nosuch"}, nil)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad target: %d", bad.Code)
	}

	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access line is not JSON: %v: %s", err, sc.Text())
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d access lines, want 2", len(lines))
	}
	for i, rec := range lines {
		if rec["msg"] != "access" {
			t.Errorf("line %d msg = %v", i, rec["msg"])
		}
		for _, k := range []string{"id", "status", "latency_ms", "outcome", "target", "strategy"} {
			if _, present := rec[k]; !present {
				t.Errorf("line %d lacks %q: %v", i, k, rec)
			}
		}
	}
	if lines[0]["id"] != "logged-1" || lines[0]["outcome"] != "ok" ||
		lines[0]["status"] != float64(200) {
		t.Errorf("success line = %v", lines[0])
	}
	if lines[1]["outcome"] != "bad-request" || lines[1]["status"] != float64(400) {
		t.Errorf("rejection line = %v", lines[1])
	}
}

// The answer's queue_ms is the admission wait the access log records
// for the same request — not the time until the answer was written,
// which would also count lowering and compiling.
func TestQueueMsMatchesAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{AccessLog: slog.New(slog.NewJSONHandler(&buf, nil))})
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: "queued-1"})
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d", w.Code)
	}
	resp := decode[CompileResponse](t, w)
	var line struct {
		ID      string  `json:"id"`
		QueueMs float64 `json:"queue_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access line: %v: %s", err, buf.String())
	}
	if line.ID != resp.RequestID {
		t.Fatalf("access line id %q, response id %q", line.ID, resp.RequestID)
	}
	if resp.QueueMs != line.QueueMs {
		t.Errorf("response queue_ms = %v, access log queue_ms = %v", resp.QueueMs, line.QueueMs)
	}
}

// GET /metrics must satisfy the same strict Prometheus parser the
// smoke test uses.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)

	w := get(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := metrics.ParsePrometheusText(bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatalf("/metrics rejected by parser: %v\n%s", err, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "marion_server_requests 1") {
		t.Errorf("request counter missing:\n%s", w.Body.String())
	}
}

// /statz reports server-side latency quantiles and the ring's shape.
func TestStatzLatencyAndTraceCount(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8, TraceSLO: time.Hour})
	post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)

	st := decode[Statz](t, get(s, "/statz"))
	q, ok := st.Latency["server.compile.seconds"]
	if !ok {
		t.Fatalf("no compile latency quantiles: %+v", st.Latency)
	}
	for _, p := range []string{"p50", "p90", "p99"} {
		if _, ok := q[p]; !ok {
			t.Errorf("latency lacks %s: %v", p, q)
		}
	}
	if q["p50"] > q["p99"] {
		t.Errorf("p50 %v > p99 %v", q["p50"], q["p99"])
	}
	if st.TraceCount != 1 || st.TraceCapacity != 8 {
		t.Errorf("trace ring stats = %d/%d, want 1/8", st.TraceCount, st.TraceCapacity)
	}
}
