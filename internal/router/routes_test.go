package router

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/loadgen"
)

var updateRoutes = flag.Bool("update", false, "rewrite testdata/routes.golden from the shard's answers")

// routeMethods × routePaths is the wire surface TestRouteAnswersPinned pins:
// every session shape, the ones the muxes clean (empty, "." and ".."
// segments) or refuse (a trailing slash, a third segment, an unknown op),
// escaped ids, and the fixed paths beside them.
var (
	routeMethods = []string{
		http.MethodGet, http.MethodHead, http.MethodPost,
		http.MethodPut, http.MethodDelete, http.MethodConnect,
	}
	routePaths = []string{
		"/v1/sessions/s1",
		"/v1/sessions/s1/step",
		"/v1/sessions/s1/reset",
		"/v1/sessions/s1/burst",
		"/v1/sessions/s1/faults",
		"/v1/sessions/s1/policy",
		"/v1/sessions/s1/snapshot",
		"/v1/sessions/s1/restore",
		"/v1/sessions/s1/nope",
		"/v1/sessions/s1/",
		"/v1/sessions/s1/step/extra",
		"/v1/sessions/s1/.",
		"/v1/sessions/s1/..",
		"/v1/sessions/s1?limit=1",
		"/v1/sessions/nosuch",
		"/v1/sessions/nosuch/step",
		"/v1/sessions/",
		"/v1/sessions//",
		"/v1/sessions//step",
		"/v1/sessions//step?limit=1",
		"/v1/sessions/./step",
		"/v1/sessions/../step",
		"/v1/sessions/a/../b/step",
		"/v1/sessions/%2e%2e/step",
		"/v1/sessions/a%2Fb",
		"/v1/sessions/a%2Fb/step",
		"/v1/sessions/s%31",
		"/v1/sessions",
		"/v1/ensembles",
	}
)

// routeAnswers serves every method × path from a fresh handler holding one
// toy session "s1" and renders each answer's status, Allow, Location,
// Content-Type and body, one case per line.
func routeAnswers(t *testing.T, newHandler func(t *testing.T) http.Handler) string {
	t.Helper()
	var b strings.Builder
	for _, path := range routePaths {
		for _, method := range routeMethods {
			h := newHandler(t)
			create := httptest.NewRequest(http.MethodPost, "/v1/sessions",
				strings.NewReader(`{"ensemble":"toy","budget":6,"window_sec":10,"seed":5}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, create)
			if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"id":"s1"`) {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			var body io.Reader
			if method == http.MethodPost || method == http.MethodPut {
				body = strings.NewReader("{}")
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
			fmt.Fprintf(&b, "%s %s -> %d allow=%q location=%q type=%q body=%q\n",
				method, path, rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Location"),
				rec.Header().Get("Content-Type"), rec.Body.String())
		}
	}
	return b.String()
}

// TestRouteAnswersPinned pins the shard's and the router's answer to every
// method × path shape against one golden table: which requests reach which
// endpoint, and the 301, 404 and 405 answers the rest get, byte for byte.
// The router forwards every session path, so its answers are the shard's.
func TestRouteAnswersPinned(t *testing.T) {
	// A stopped clock keeps the listing's session ages out of the answers.
	stopped := httpapi.WithClock(func() time.Time { return time.Unix(1e9, 0) })
	golden := filepath.Join("testdata", "routes.golden")
	for _, tc := range []struct {
		name       string
		newHandler func(t *testing.T) http.Handler
	}{
		{"shard", func(*testing.T) http.Handler { return httpapi.NewServer(stopped).Handler() }},
		{"router", func(t *testing.T) http.Handler {
			const member = "http://shard-0"
			fleet := loadgen.NewFleetTransport()
			fleet.Register(member, httpapi.NewServer(stopped,
				httpapi.WithShardTopology(member, []string{member})).Handler())
			rt, err := New([]string{member}, WithClient(&http.Client{Transport: fleet}))
			if err != nil {
				t.Fatal(err)
			}
			return rt.Handler()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := routeAnswers(t, tc.newHandler)
			if *updateRoutes && tc.name == "shard" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gotLines), len(wantLines)) {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
					}
				}
				t.Fatalf("answers have %d lines, golden %d", len(gotLines), len(wantLines))
			}
		})
	}
}
