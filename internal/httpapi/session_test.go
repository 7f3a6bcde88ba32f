package httpapi

import (
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"

	"miras/internal/obs"
	"miras/internal/rl"
)

// admitted creates a session for req on srv through admit, with no HTTP.
func admitted(t testing.TB, srv *Server, req CreateRequest) *session {
	t.Helper()
	sess, err := srv.admit(srv.mintID(), func() (*session, error) { return newSession(req) })
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// newCore creates a toy session (10 s windows, seed 5) on srv.
func newCore(t testing.TB, srv *Server, budget int) *session {
	return admitted(t, srv, CreateRequest{Ensemble: "toy", Budget: budget, WindowSec: 10, Seed: 5})
}

// step runs one Step on sess and returns its answer, copied out of the
// session's reused buffer.
func step(t testing.TB, sess *session, alloc []int, key string) string {
	t.Helper()
	body, err := sess.Step(t.Context(), alloc, key)
	if err != nil {
		t.Fatalf("step %v: %v", alloc, err)
	}
	return string(body)
}

// controllerOf reads the controller an answered step names, "" for none.
func controllerOf(body string) string {
	_, rest, ok := strings.Cut(body, `"controller":`)
	if !ok {
		return ""
	}
	name, _ := strconv.QuotedPrefix(rest)
	name, _ = strconv.Unquote(name)
	return name
}

// TestSessionCoreImportsNoHTTP keeps the codec boundary where it is: the
// session core's file imports no HTTP package.
func TestSessionCoreImportsNoHTTP(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "session.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "net/http" || path == "net/http/httptest" {
			t.Errorf("session.go imports %s; the session core must stay below the wire", path)
		}
	}
}

// TestFallbackCause: a policy failure degrades the session to HPA, and the
// session.decide span of that step names why, from the closed set of
// causes.
func TestFallbackCause(t *testing.T) {
	ring := obs.NewSpanRing(64)
	tr := obs.NewTracer(obs.TracerConfig{Ring: ring})
	srv := NewServer(WithTracer(tr))
	nanWeight := testPolicy(2, 2)
	nanWeight.Actor.Layers[0].W.Data[0] = math.NaN()
	for _, tc := range []struct {
		name   string
		policy *rl.PolicySnapshot
		cause  string
	}{
		{"NaN weight", nanWeight, causeNonFinite},
		{"panicking actor", testPolicy(3, 2), causePanic}, // ActTo panics on a state of the wrong width
		{"wrong arity", testPolicy(2, 3), causeBadArity},
	} {
		sess := newCore(t, srv, 6)
		if _, err := sess.AttachPolicy(testPolicy(2, 2)); err != nil {
			t.Fatal(err)
		}
		sess.policy = tc.policy // past AttachPolicy's validation, as a policy gone bad would be
		root := tr.Start("test")
		body, err := sess.Step(obs.ContextWithSpan(t.Context(), root), nil, "")
		root.End()
		if err != nil || controllerOf(string(body)) != "hpa" {
			t.Fatalf("%s: step answered %s (%v), want the HPA fallback", tc.name, body, err)
		}
		var cause any
		for _, rec := range ring.Records() {
			if rec.Name == "session.decide" && rec.Attrs["session"] == sess.id {
				cause = rec.Attrs["cause"]
			}
		}
		if cause != tc.cause {
			t.Errorf("%s: session.decide cause %v, want %q", tc.name, cause, tc.cause)
		}
	}
}
