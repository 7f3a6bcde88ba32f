package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ErrorCode is a stable, machine-readable error identifier. Codes are part
// of the v1 wire contract: clients branch on Code, never on Message, and a
// golden test pins the envelope bytes for every code.
type ErrorCode string

const (
	// CodeBadRequest is a malformed request body (invalid JSON).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownEnsemble names an ensemble that does not exist.
	CodeUnknownEnsemble ErrorCode = "unknown_ensemble"
	// CodeBadSessionConfig is a well-formed create request with invalid
	// values (bad budget, window, rates, …).
	CodeBadSessionConfig ErrorCode = "bad_session_config"
	// CodeSessionLimit means the server is at its live-session bound.
	CodeSessionLimit ErrorCode = "session_limit"
	// CodeSessionNotFound means the session id does not exist (never
	// created, or already deleted).
	CodeSessionNotFound ErrorCode = "session_not_found"
	// CodeSessionExpired means the session existed but was evicted by its
	// TTL or idle bound (HTTP 410). The id is remembered in a bounded
	// tombstone ring, so very old evictions eventually degrade to
	// session_not_found.
	CodeSessionExpired ErrorCode = "session_expired"
	// CodeWrongShard means this shard process does not own the session id
	// (HTTP 421); the message names the owning shard's address so routers
	// and clients can follow.
	CodeWrongShard ErrorCode = "wrong_shard"
	// CodeBadAllocation is a step whose allocation the environment rejects
	// (wrong arity, negative counts, budget exceeded).
	CodeBadAllocation ErrorCode = "bad_allocation"
	// CodeBadBurst is a burst request the generator rejects.
	CodeBadBurst ErrorCode = "bad_burst"
	// CodeBadFaultPlan is a fault plan that fails validation.
	CodeBadFaultPlan ErrorCode = "bad_fault_plan"
	// CodeBadPolicy is a policy snapshot that fails validation or does not
	// match the session's dimensions, or an auto-step on a session with no
	// policy attached.
	CodeBadPolicy ErrorCode = "bad_policy"
	// CodeBadSnapshot is a session snapshot that fails validation or whose
	// operation log cannot be replayed.
	CodeBadSnapshot ErrorCode = "bad_snapshot"
	// CodeBodyTooLarge means the request body exceeded the server's byte
	// limit (HTTP 413).
	CodeBodyTooLarge ErrorCode = "body_too_large"
	// CodeDeadlineExceeded means the client's propagated deadline (the
	// X-Miras-Deadline-Ms header) expired before the work finished
	// (HTTP 504), or the client went away while its step was queued: a
	// step the client has already given up on is abandoned, not run.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeUpstreamDegraded is emitted by `miras route` when the owning
	// shard's circuit breaker is open (HTTP 503): the shard is presumed
	// down and requests fail fast instead of waiting out a dial timeout.
	// Distinct from upstream_unreachable, which reports an actual failed
	// transport attempt.
	CodeUpstreamDegraded ErrorCode = "upstream_degraded"
	// CodeInternal is a server-side failure (spill I/O, drain errors).
	// Unlike the codes above its occurrences are environmental, so the
	// golden test does not pin it.
	CodeInternal ErrorCode = "internal"
	// CodeUpstreamUnreachable is emitted by `miras route` when the owning
	// shard process cannot be reached (HTTP 502).
	CodeUpstreamUnreachable ErrorCode = "upstream_unreachable"
)

// ErrorDetail is the payload inside the error envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// ErrorEnvelope is the uniform error response body: every non-2xx response
// from every endpoint is exactly {"error":{"code":…,"message":…}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// WriteError emits the uniform error envelope with status: the one writer
// of it, for the shard's codec and `miras route` alike.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// statusKey is a row of the status table: an error code, answered at an
// endpoint ("" for every endpoint without a row of its own).
type statusKey struct {
	endpoint string
	code     ErrorCode
}

// statuses is the codec's one error → status table. Rows naming an endpoint
// depend on where the error arose: a fault plan refused at create is a bad
// create request; an auto-step with no policy conflicts with the session.
var statuses = map[statusKey]int{
	{"", CodeBadRequest}:         http.StatusBadRequest,
	{"", CodeUnknownEnsemble}:    http.StatusBadRequest,
	{"", CodeBadSessionConfig}:   http.StatusBadRequest,
	{"", CodeSessionLimit}:       http.StatusTooManyRequests,
	{"", CodeSessionNotFound}:    http.StatusNotFound,
	{"", CodeSessionExpired}:     http.StatusGone,
	{"", CodeWrongShard}:         http.StatusMisdirectedRequest,
	{"", CodeBadAllocation}:      http.StatusUnprocessableEntity,
	{"", CodeBadBurst}:           http.StatusUnprocessableEntity,
	{"", CodeBadFaultPlan}:       http.StatusUnprocessableEntity,
	{"create", CodeBadFaultPlan}: http.StatusBadRequest,
	{"", CodeBadPolicy}:          http.StatusUnprocessableEntity,
	{"step", CodeBadPolicy}:      http.StatusConflict,
	{"", CodeBadSnapshot}:        http.StatusUnprocessableEntity,
	{"", CodeBodyTooLarge}:       http.StatusRequestEntityTooLarge,
	{"", CodeDeadlineExceeded}:   http.StatusGatewayTimeout,
	{"", CodeInternal}:           http.StatusInternalServerError,
}

// fail answers err, raised at endpoint, with its code's envelope and the
// status the table gives that code there.
func fail(w http.ResponseWriter, endpoint string, err error) {
	code := codeOf(err)
	status, ok := statuses[statusKey{endpoint, code}]
	if !ok {
		status = statuses[statusKey{"", code}]
	}
	WriteError(w, status, code, err)
}

// decodeBody decodes a JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return bodyError(err)
	}
	return nil
}

// bodyError codes a failure to read or decode a request body: one the
// body-size cap cut short is body_too_large, any other bad_request.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return coded(CodeBodyTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	}
	return coded(CodeBadRequest, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after headers are written can only be logged; for
	// these small payloads they do not occur in practice.
	_ = json.NewEncoder(w).Encode(v)
}

// writeRawJSON emits body, a JSON value encoded as writeJSON encodes one
// (newline included), with writeJSON's header.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// validateID checks strings that arrive in URLs. Session ids also name
// spill-store directories, so path-walking names are rejected outright.
func validateID(id string) error {
	if id == "" || id == "." || id == ".." ||
		strings.ContainsAny(id, `/\ `) {
		return fmt.Errorf("invalid session id %q", id)
	}
	return nil
}

// bufferedResponse accumulates a handler's full response in memory so
// serveBounded can atomically either flush it or discard it in favor of a
// deadline envelope. Handler responses here are small (session info, step
// stats), so buffering is cheap.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) { b.status = status }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// maxDeadlineMs is the largest DeadlineHeader value that still fits a
// time.Duration; anything above is clamped to it (292 years is unbounded
// for every practical purpose, and a wrapped-negative budget is not).
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// RequestDeadline reads the caller's propagated budget from DeadlineHeader
// — the one parser `miras serve` and `miras route` share. It returns the
// budget (0 when the header is absent) and true, or writes the refusal
// itself and returns false: 400 bad_request for a malformed value, 504
// deadline_exceeded for a budget already spent (≤ 0 ms).
func RequestDeadline(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return 0, true
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		fail(w, "", coded(CodeBadRequest, fmt.Errorf("invalid %s header %q", DeadlineHeader, raw)))
		return 0, false
	}
	if ms <= 0 {
		fail(w, "", coded(CodeDeadlineExceeded, fmt.Errorf("request deadline already exhausted")))
		return 0, false
	}
	return time.Duration(min(ms, maxDeadlineMs)) * time.Millisecond, true
}

// serveBounded serves one request under its one bound, the caller's
// DeadlineHeader, read through RequestDeadline (which answers a malformed
// or spent budget itself). Without the header h runs on the caller's
// goroutine, straight onto w. With it h runs on a goroutine of its own
// under a context carrying the budget, its response buffered: a handler
// done in time is copied to w, and when the budget runs out first the
// client gets a clean 504 deadline_exceeded envelope instead of a
// half-written body. The abandoned handler runs on; the channel returned
// then closes when it returns, and is nil in every other case.
func serveBounded(w http.ResponseWriter, r *http.Request, id string, h endpoint) <-chan struct{} {
	budget, ok := RequestDeadline(w, r)
	if !ok {
		return nil
	}
	if budget == 0 {
		h(w, r, id)
		return nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h(buf, r.WithContext(ctx), id)
	}()
	select {
	case <-done:
		maps.Copy(w.Header(), buf.header)
		w.WriteHeader(buf.status)
		_, _ = w.Write(buf.body.Bytes())
		return nil
	case <-ctx.Done():
		fail(w, "", coded(CodeDeadlineExceeded,
			fmt.Errorf("request exceeded its %dms deadline", budget.Milliseconds())))
		return done
	}
}
