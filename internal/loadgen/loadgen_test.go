package loadgen

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"miras/internal/httpapi"
)

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

func TestTraceDeterministic(t *testing.T) {
	cfg := Config{Target: "http://x", Requests: 500, Sessions: 8, Skew: "zipf"}
	a, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 500 {
		t.Fatalf("trace length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identical configs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 7
	c, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestZipfSkewsSessionMix(t *testing.T) {
	base := Config{Target: "http://x", Requests: 4000, Sessions: 32}
	uni, err := GenTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Skew = "zipf"
	zipf, err := GenTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	hottest := func(trace []Op) float64 {
		counts := make(map[int]int)
		for _, op := range trace {
			counts[op.Session]++
		}
		hot := 0
		for _, n := range counts {
			if n > hot {
				hot = n
			}
		}
		return float64(hot) / float64(len(trace))
	}
	hu, hz := hottest(uni), hottest(zipf)
	// Uniform over 32 sessions gives each ~3%; Zipf s=1.2 concentrates
	// several-fold more on the hottest session.
	if hz < 2*hu {
		t.Fatalf("zipf hottest share %.3f not skewed vs uniform %.3f", hz, hu)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := GenTrace(Config{}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := GenTrace(Config{Target: "http://x", Skew: "pareto"}); err == nil {
		t.Fatal("unknown skew accepted")
	}
	if _, err := GenTrace(Config{Target: "http://x", Skew: "zipf", ZipfS: 0.5}); err == nil {
		t.Fatal("zipf s <= 1 accepted")
	}
}

func TestRunAgainstServer(t *testing.T) {
	ts := httptest.NewServer(httpapi.NewServer(httpapi.WithMaxSessions(64)).Handler())
	defer ts.Close()

	res, err := Run(Config{
		Target:      ts.URL,
		Requests:    200,
		Sessions:    12,
		Concurrency: 4,
		Skew:        "zipf",
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Error5xx != 0 {
		t.Fatalf("errors=%d (5xx=%d): statuses %v", res.Errors, res.Error5xx, res.Statuses)
	}
	if res.ThroughputRPS <= 0 {
		t.Fatalf("throughput %.1f", res.ThroughputRPS)
	}
	if res.P50Ms <= 0 || res.P50Ms > res.P99Ms || res.P99Ms > res.MaxMs {
		t.Fatalf("quantiles out of order: p50=%.3f p99=%.3f max=%.3f",
			res.P50Ms, res.P99Ms, res.MaxMs)
	}
	if res.Statuses["200"] != 200 {
		t.Fatalf("status counts %v, want 200 OKs", res.Statuses)
	}
	if res.HotShare <= 1.0/12 {
		t.Fatalf("zipf hot share %.3f not above uniform floor", res.HotShare)
	}

	// The population was cleaned up.
	var page httpapi.ListResponse
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := jsonDecode(resp.Body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Sessions) != 0 {
		t.Fatalf("%d sessions left after run", len(page.Sessions))
	}
}
