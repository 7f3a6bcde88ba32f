package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"miras/internal/env"
	"miras/internal/faults"
)

// FuzzHTTPCreateSession throws arbitrary bodies at POST /v1/sessions — the
// server's main untrusted input surface (it reaches the workflow, cluster,
// env, and faults constructors). The handler must never panic, and every
// response must honour the API contract: 201 with a usable SessionInfo, or
// 4xx with the uniform {"error":{"code","message"}} envelope.
func FuzzHTTPCreateSession(f *testing.F) {
	f.Add(`{"ensemble":"toy","budget":4}`)
	f.Add(`{"ensemble":"msd","budget":14,"window_sec":30,"seed":7}`)
	f.Add(`{"ensemble":"ligo","budget":30,"failure_aware":true}`)
	f.Add(`{"ensemble":"toy","budget":4,"rates":[0.1,0.2]}`)
	f.Add(`{"ensemble":"toy","budget":4,"faults":{"specs":[{"kind":"crash","service":0,"mttf_sec":10}]}}`)
	f.Add(`{"ensemble":"toy","budget":4,"faults":{"specs":[{"kind":"slowdown","service":0,"factor":1e999}]}}`)
	f.Add(`{"ensemble":"nope","budget":1}`)
	f.Add(`{"ensemble":"toy","budget":-3}`)
	f.Add(`{"ensemble":"toy","budget":4,"window_sec":-1}`)
	f.Add(`{"ensemble":"toy","budget":4,"rates":[-0.5]}`)
	f.Add(`{broken`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, body string) {
		// A fresh server per input keeps iterations independent (no session
		// accumulation hitting the limit and masking later branches).
		srv := NewServer(WithMaxSessions(2))
		h := srv.Handler()

		req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)

		switch {
		case rr.Code == http.StatusCreated:
			var info SessionInfo
			if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 body is not SessionInfo: %v\nbody: %q", err, rr.Body.Bytes())
			}
			if info.ID == "" || info.StateDim <= 0 || info.ActionDim <= 0 {
				t.Fatalf("201 with unusable session info: %+v", info)
			}
			// The created session must actually be reachable.
			get := httptest.NewRequest("GET", "/v1/sessions/"+info.ID, nil)
			rr2 := httptest.NewRecorder()
			h.ServeHTTP(rr2, get)
			if rr2.Code != http.StatusOK {
				t.Fatalf("created session %q not retrievable: %d %s", info.ID, rr2.Code, rr2.Body.Bytes())
			}
		case rr.Code >= 400 && rr.Code < 500:
			var env ErrorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
				t.Fatalf("%d body is not the error envelope: %v\nbody: %q", rr.Code, err, rr.Body.Bytes())
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%d error envelope missing code or message: %q", rr.Code, rr.Body.Bytes())
			}
		default:
			t.Fatalf("create returned %d (want 201 or 4xx): %q", rr.Code, rr.Body.Bytes())
		}
	})
}

// FuzzSessionRestore throws arbitrary snapshots at POST …/restore — the
// untrusted input behind restore, drain → rehydrate and failover, which
// read spill files back. The handler must never panic. A body that does not
// decode as a SessionSnapshot — its embedded policy included — must be
// refused with 400 bad_request; every other body must either be refused
// with 422 bad_snapshot or restore so that GET …/snapshot re-encodes it
// (seed defaulted to 1, a null op log as []), its last_step included, and a
// step repeating that record's key is answered with the recorded response
// without stepping.
func FuzzSessionRestore(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "session_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(fixture))
	withPolicy, err := json.Marshal(SessionSnapshot{
		Create: CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10},
		Ops:    []env.Op{{Kind: "burst", Counts: []int{9}}, {Kind: "step", Alloc: []int{3, 3}}},
		Policy: testPolicy(2, 2),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(withPolicy))
	withLastStep, err := json.Marshal(SessionSnapshot{
		Create:   CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10},
		Ops:      []env.Op{{Kind: "step", Alloc: []int{3, 3}}},
		LastStep: &StepRecord{Key: "k1", Response: json.RawMessage(`{"window":1,"reward":-2}`)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(withLastStep))
	f.Add(`{"create":{"ensemble":"msd","budget":14,"seed":3},"ops":[{"kind":"burst","counts":[5,0,2]},{"kind":"step","alloc":[4,4,3,3]},{"kind":"reset"}]}`)
	f.Add(`{"create":{"ensemble":"toy","budget":4},"ops":null}`)

	now := time.Unix(1000, 0) // a frozen clock: no TTL or idle bound can expire mid-input
	f.Fuzz(func(t *testing.T, body string) {
		var snap SessionSnapshot
		decodeErr := json.NewDecoder(strings.NewReader(body)).Decode(&snap)
		if decodeErr == nil && restoreTooCostly(snap) {
			t.Skip()
		}
		h := NewServer(WithClock(func() time.Time { return now })).Handler()
		key := "" // the IdempotencyKeyHeader serve sends, if any
		serve := func(method, path, body string) *httptest.ResponseRecorder {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			if key != "" {
				req.Header.Set(IdempotencyKeyHeader, key)
			}
			h.ServeHTTP(rr, req)
			return rr
		}
		var info SessionInfo
		rr := serve("POST", "/v1/sessions", `{"ensemble":"toy","budget":4}`)
		if rr.Code != http.StatusCreated || json.Unmarshal(rr.Body.Bytes(), &info) != nil {
			t.Fatalf("create: %d %q", rr.Code, rr.Body.Bytes())
		}
		path := "/v1/sessions/" + info.ID
		rr = serve("POST", path+"/restore", body)
		if decodeErr != nil {
			var e ErrorEnvelope
			if rr.Code != http.StatusBadRequest || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error.Code != CodeBadRequest {
				t.Fatalf("undecodable snapshot (%v) answered %d, want 400 bad_request: %q", decodeErr, rr.Code, rr.Body.Bytes())
			}
			return
		}
		switch rr.Code {
		case http.StatusOK:
			want := snap
			if want.Create.Seed == 0 {
				want.Create.Seed = 1
			}
			if want.Ops == nil {
				want.Ops = []env.Op{}
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			got := serve("GET", path+"/snapshot", "")
			if got.Code != http.StatusOK || got.Body.String() != buf.String() {
				t.Fatalf("restored snapshot does not re-encode its input: %d\n got: %s\nwant: %s",
					got.Code, got.Body.Bytes(), buf.Bytes())
			}
			if rec := snap.LastStep; rec != nil {
				key = rec.Key
				replay := serve("POST", path+"/step", `{"allocation":[0,0]}`)
				if replay.Code != http.StatusOK || replay.Body.String() != string(rec.Response)+"\n" {
					t.Fatalf("repeated key %q answered %d %q, want the recorded %q", key, replay.Code, replay.Body.Bytes(), rec.Response)
				}
				if again := serve("GET", path+"/snapshot", ""); again.Body.String() != got.Body.String() {
					t.Fatalf("repeated key stepped: snapshot\n got: %s\nwant: %s", again.Body.Bytes(), got.Body.Bytes())
				}
			}
		case http.StatusUnprocessableEntity:
			var e ErrorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error.Code != CodeBadSnapshot {
				t.Fatalf("422 without a bad_snapshot envelope: %q", rr.Body.Bytes())
			}
		default:
			t.Fatalf("restore returned %d (want 200 or 422): %q", rr.Code, rr.Body.Bytes())
		}
	})
}

// restoreTooCostly reports whether replaying snap would stall the fuzzer.
// The emulator's work grows with the requests and fault events an input
// asks for, and an input may ask for arbitrarily many; such inputs are
// skipped, not judged. Capping them in the server is a separate question.
func restoreTooCostly(snap SessionSnapshot) bool {
	req := snap.Create
	if req.Budget > 100 || len(snap.Ops) > 200 {
		return true
	}
	window := req.WindowSec
	if window == 0 {
		window = env.DefaultWindowSec
	}
	rate := 1.0 // above every ensemble's default total rate
	if req.Rates != nil {
		rate = 0
		for _, r := range req.Rates {
			rate += r
		}
	}
	var horizon, burst float64 // virtual seconds stepped, requests injected
	plans := []*faults.Plan{req.Faults}
	for _, op := range snap.Ops {
		switch op.Kind {
		case "step":
			horizon += window
		case "burst":
			for _, n := range op.Counts {
				burst += float64(max(n, 0))
			}
		}
		plans = append(plans, op.Plan)
	}
	if burst > 1e4 || horizon*rate > 1e4 {
		return true
	}
	// A crash process fails each consumer about once per MTTF.
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, sp := range p.Specs {
			if sp.Kind == faults.Crash && horizon*float64(req.Budget+10)/sp.MTTFSec > 1e4 {
				return true
			}
		}
	}
	return false
}
