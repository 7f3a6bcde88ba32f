package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"miras/internal/obs"
)

// doJSON issues one request against h and decodes the JSON response.
func doJSON(t *testing.T, h http.Handler, method, path, body string, status int) map[string]any {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != status {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, path, rec.Code, status, rec.Body.String())
	}
	if rec.Body.Len() == 0 {
		return nil
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		// Some endpoints return arrays; tests that need them decode
		// themselves.
		return nil
	}
	return m
}

// scrape renders the server's registry as /metrics serves it.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// assertPrometheusFormat checks every non-comment line is `name{...} value`.
func assertPrometheusFormat(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		if name == "" || !(name[0] == '_' || (name[0] >= 'a' && name[0] <= 'z') ||
			(name[0] >= 'A' && name[0] <= 'Z')) {
			t.Fatalf("bad metric name in %q", line)
		}
	}
}

// TestMetricsMiddleware drives the API through create/step/info/delete and
// asserts the per-endpoint counters, latency histograms, and env/cluster
// gauges that /metrics must expose.
func TestMetricsMiddleware(t *testing.T) {
	s := NewServer()
	h := s.Handler()

	doJSON(t, h, "GET", "/v1/ensembles", "", http.StatusOK)
	created := doJSON(t, h, "POST", "/v1/sessions",
		`{"ensemble":"toy","budget":6}`, http.StatusCreated)
	id := created["id"].(string)
	doJSON(t, h, "POST", "/v1/sessions/"+id+"/step",
		`{"allocation":[3,3]}`, http.StatusOK)
	doJSON(t, h, "POST", "/v1/sessions/"+id+"/step",
		`{"allocation":[2,2]}`, http.StatusOK)
	// One rejected step: over budget -> 422, counted as an error.
	doJSON(t, h, "POST", "/v1/sessions/"+id+"/step",
		`{"allocation":[99,99]}`, http.StatusUnprocessableEntity)
	doJSON(t, h, "GET", "/v1/sessions/"+id, "", http.StatusOK)

	body := scrape(t, s)
	assertPrometheusFormat(t, body)
	for _, want := range []string{
		`miras_http_requests_total{endpoint="ensembles"} 1`,
		`miras_http_requests_total{endpoint="create"} 1`,
		`miras_http_requests_total{endpoint="step"} 3`,
		`miras_http_requests_total{endpoint="info"} 1`,
		`miras_http_errors_total{endpoint="step"} 1`,
		`miras_http_request_duration_seconds_count{endpoint="step"} 3`,
		`miras_sessions_live 1`,
		`miras_env_windows_total 2`,
		`miras_env_wip{session="` + id + `"}`,
		`miras_cluster_inflight{session="` + id + `"}`,
		`# TYPE miras_http_request_duration_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// Deleting the session removes its gauges and drops the live count.
	doJSON(t, h, "DELETE", "/v1/sessions/"+id, "", http.StatusNoContent)
	body = scrape(t, s)
	if strings.Contains(body, `session="`+id+`"`) {
		t.Errorf("per-session gauges survive deletion:\n%s", body)
	}
	if !strings.Contains(body, "miras_sessions_live 0") {
		t.Errorf("sessions_live not reset:\n%s", body)
	}
	if !strings.Contains(body, `miras_http_requests_total{endpoint="delete"} 1`) {
		t.Errorf("delete endpoint not counted:\n%s", body)
	}
}

// TestMountDebugEndToEnd serves the full server mux the way `miras serve`
// assembles it and checks /metrics, /healthz, the pprof index, and the
// time-series dump and dashboard (sampled after live traffic) respond.
func TestMountDebugEndToEnd(t *testing.T) {
	s := NewServer()
	obs.RegisterProcessMetrics(s.Registry())
	ts := obs.NewTimeSeriesRing(32)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	obs.MountDebug(mux, s.Registry(), ts)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	assertPrometheusFormat(t, body)
	if !strings.Contains(body, "process_goroutines") {
		t.Fatalf("/metrics missing process metrics:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	if code, _ := get("/v1/ensembles"); code != http.StatusOK {
		t.Fatalf("/v1/ensembles = %d", code)
	}
	ts.Sample(s.Registry(), 1)
	code, body = get("/v1/debug/timeseries")
	if code != http.StatusOK {
		t.Fatalf("timeseries status %d", code)
	}
	var dump obs.TimeSeriesDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("timeseries not JSON: %v\n%s", err, body)
	}
	if dump.Samples == 0 || len(dump.Series) == 0 {
		t.Fatalf("empty timeseries dump: %+v", dump)
	}
	code, body = get("/debug/dash")
	if code != http.StatusOK {
		t.Fatalf("dash status %d", code)
	}
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "miras_http_requests_total") {
		t.Fatalf("dash HTML lacks sparklines or metric names (%d bytes)", len(body))
	}
}
