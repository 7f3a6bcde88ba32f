package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// NewHandlerTransport returns an http.RoundTripper that serves every
// request by calling h directly — no sockets, no ports, no network stack.
// Set it as Config.Transport to replay a trace against an in-process
// httpapi.Server (or router) handler: the benchmark's serve workloads are
// driven this way, so a measurement never depends on free ports or
// loopback throughput.
//
// The transport is synchronous and safe for concurrent use when h is (the
// httpapi handlers are). Request contexts pass through untouched.
func NewHandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &responseRecorder{header: make(http.Header), status: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.status),
		StatusCode:    rec.status,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is the minimal http.ResponseWriter the handler
// transport needs (net/http/httptest's recorder would do, but pulling a
// testing helper into non-test code reads wrong).
type responseRecorder struct {
	header      http.Header
	body        bytes.Buffer
	status      int
	wroteHeader bool
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(status int) {
	if r.wroteHeader {
		return
	}
	r.status = status
	r.wroteHeader = true
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	return r.body.Write(p)
}

// FleetTransport is a multi-member handler transport: requests are routed
// to registered in-process handlers by the URL's scheme://host, and a
// member can be killed so every later request to it fails with a transport
// error — a shard crash without processes or sockets. Tests and the
// benchmark's serve-fleet workload drive a whole router+shards topology
// through one of these.
type FleetTransport struct {
	mu      sync.RWMutex
	members map[string]http.Handler
	dead    map[string]bool
}

// NewFleetTransport returns an empty fleet; register members before use.
func NewFleetTransport() *FleetTransport {
	return &FleetTransport{
		members: make(map[string]http.Handler),
		dead:    make(map[string]bool),
	}
}

// Register serves baseURL (e.g. "http://shard-0") from h.
func (t *FleetTransport) Register(baseURL string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.members[baseURL] = h
}

// Kill makes every subsequent request to baseURL fail with a transport
// error, as a crashed process's connections would.
func (t *FleetTransport) Kill(baseURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dead[baseURL] = true
}

// Revive undoes Kill — the member serves again (a restarted process).
func (t *FleetTransport) Revive(baseURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.dead, baseURL)
}

func (t *FleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Scheme + "://" + req.URL.Host
	t.mu.RLock()
	h, ok := t.members[key]
	dead := t.dead[key]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fleet transport: no member %q", key)
	}
	if dead {
		return nil, fmt.Errorf("fleet transport: dial %s: connection refused", key)
	}
	return handlerTransport{h}.RoundTrip(req)
}
