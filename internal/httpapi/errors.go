package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
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

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, status int, code ErrorCode, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// decodeBody decodes a JSON request body into v, reporting CodeBadRequest
// on failure (CodeBodyTooLarge when the body-size middleware cut the read
// short). It returns false when the response has already been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request body that could not be read or decoded:
// 413 body_too_large when the body-size middleware cut the read short, 400
// bad_request otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, err)
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
