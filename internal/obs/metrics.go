// Package obs is the runtime observability layer: a stdlib-only metrics
// registry rendered in Prometheus text exposition format, a sampled
// time-series ring over it, and the Tracer — the one telemetry handle
// components accept — which mints causal spans, writes them through its
// Recorder sink (JSONL over log/slog) and its in-memory SpanRing, and fires
// anomaly profiles through its ProfileCapturer.
//
// The registry serves the ROADMAP's production-server goal: counters,
// gauges, and fixed-bucket histograms safe for concurrent use, scraped from
// `miras serve`'s /metrics endpoint. The span is the one trace record, and
// it serves the paper's evaluation methodology (§VI): every per-window
// observable the controller sees — WIP vectors, allocations, rewards, model
// losses — is an attribute of a span in a replayable JSONL trace.
//
// Everything is nil-safe: a nil *Tracer swallows spans and triggers with
// zero allocations, so instrumented hot paths (rl.DDPG.Update,
// envmodel.Model.Fit) cost one pointer comparison when observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds — the conventional Prometheus spread from sub-millisecond to
// tens of seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// metricType tags a family with its exposition TYPE line.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a concurrent metric registry. All accessor methods have
// get-or-create semantics: the first call registers the series, later calls
// with the same name and labels return the same metric. Registration with a
// name already bound to a different metric type panics (a programming
// error, like a duplicate flag).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family groups every labelled series of one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // labelKey -> *Counter | *Gauge | *Histogram | funcGauge
}

// funcGauge is a gauge whose value is computed at scrape time.
type funcGauge struct{ fn func() float64 }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter for name and the given label pairs,
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, counterType, nil)
	return f.get(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name and the given label pairs, registering
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, gaugeType, nil)
	return f.get(labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at every
// scrape. Re-registering the same series replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.family(name, help, gaugeType, nil)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[key] = funcGauge{fn: fn}
}

// Histogram returns the histogram for name and the given label pairs,
// registering it on first use with the given bucket upper bounds (ascending;
// a terminal +Inf bucket is implicit). Nil buckets mean DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	f := r.family(name, help, histogramType, buckets)
	return f.get(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Remove drops one labelled series, e.g. when the session it described is
// deleted. Removing an absent series is a no-op.
func (r *Registry) Remove(name string, labels ...string) {
	r.mu.Lock()
	f, ok := r.fams[name]
	r.mu.Unlock()
	if !ok {
		return
	}
	key := labelKey(labels)
	f.mu.Lock()
	delete(f.series, key)
	f.mu.Unlock()
}

// family finds or registers the family for name.
func (r *Registry) family(name, help string, typ metricType, buckets []float64) *family {
	checkMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
				name, f.typ, typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, buckets: buckets,
		series: make(map[string]any)}
	r.fams[name] = f
	return f
}

// get finds or creates the series for the label pairs.
func (f *family) get(labels []string, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	return m
}

// labelKey canonicalises alternating key/value label pairs into the
// exposition-format label string (keys sorted, values escaped), e.g.
// `{endpoint="step",session="s1"}`. Empty labels yield "".
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		checkLabelName(labels[i])
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func checkMetricName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

func checkLabelName(name string) {
	if name == "" {
		panic("obs: empty label name")
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid label name %q", name))
		}
	}
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// --- metric kinds ---

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative at render
// time, per the exposition format's `le` convention).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Bucket bounds are inclusive upper bounds
// (v ≤ bound), matching Prometheus `le` semantics.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// --- exposition ---

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), families and series in sorted order so
// output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		m   any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, f.series[k]})
	}
	f.mu.Unlock()

	if len(rows) == 0 {
		return
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, rw := range rows {
		switch m := rw.m.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, rw.key, m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, rw.key, formatFloat(m.Value()))
		case funcGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, rw.key, formatFloat(m.fn()))
		case *Histogram:
			renderHistogram(b, f.name, rw.key, m)
		}
	}
}

// renderHistogram emits the cumulative _bucket series plus _sum and _count.
func renderHistogram(b *strings.Builder, name, key string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			addLabel(key, "le", formatFloat(bound)), cum)
	}
	total := h.count.Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, addLabel(key, "le", "+Inf"), total)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, total)
}

// addLabel splices one more label pair into an already-rendered label set.
func addLabel(key, k, v string) string {
	pair := k + `="` + escapeLabelValue(v) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in exposition format
// — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Render errors after the header can only be dropped; the writer
		// is the network connection.
		_ = r.WritePrometheus(w)
	})
}
