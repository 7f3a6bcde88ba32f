package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"miras/internal/env"
	"miras/internal/rl"
)

// policyTable interns the policy snapshots a Server attaches, keyed by the
// SHA-256 of their raw JSON: sessions sent the same bytes — by attach,
// restore or rehydrate — share one snapshot instead of each decoding and
// holding a private copy. Sharing needs no lock, because a snapshot is
// read-only once decoded and every session evaluates it in its own
// rl.PolicyScratch.
//
// Entries are weak pointers, so the table never keeps a policy alive; a
// runtime cleanup deletes an entry once its snapshot has been collected.
// Validation is left to the callers (validatePolicyFor), after the session
// lookup and, for a snapshot, its create request and op log, so a policy
// that decodes but is invalid is reported only when nothing earlier fails;
// such a snapshot is entered too, and leaves the table once the failed
// request lets go of it.
type policyTable struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]weak.Pointer[rl.PolicySnapshot]
}

// policyEntry identifies one table entry for the cleanup that removes it.
type policyEntry struct {
	key [sha256.Size]byte
	wp  weak.Pointer[rl.PolicySnapshot]
}

// intern returns the snapshot that raws decode to, in order, into one
// value. A live entry for the same bytes is shared without decoding;
// otherwise each raw is decoded with a json.Decoder — the first JSON value
// wins, as for any request body — and the result is entered. A decode
// error is returned as is, and nothing is entered. Concurrent misses on
// the same bytes each decode; the last one's entry stays.
func (t *policyTable) intern(raws ...[]byte) (*rl.PolicySnapshot, error) {
	// Each raw is a whole JSON value (or a whole request body), so joining
	// them with a space keeps distinct sequences distinct.
	h := sha256.New()
	for i, raw := range raws {
		if i > 0 {
			h.Write([]byte{' '})
		}
		h.Write(raw)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	t.mu.Lock()
	p := t.m[key].Value()
	t.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p = new(rl.PolicySnapshot)
	for _, raw := range raws {
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(p); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[[sha256.Size]byte]weak.Pointer[rl.PolicySnapshot])
	}
	e := policyEntry{key: key, wp: weak.Make(p)}
	t.m[key] = e.wp
	runtime.AddCleanup(p, t.drop, e)
	return p, nil
}

// drop deletes e's entry, unless a later snapshot for the same bytes has
// replaced it since e's snapshot became unreachable.
func (t *policyTable) drop(e policyEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[e.key] == e.wp {
		delete(t.m, e.key)
	}
}

// policyJSON is the raw JSON of a snapshot's "policy" field, one element
// per occurrence of the key. Decoding the elements in order into one value
// is what SessionSnapshot's pointer field does with a repeated key, and a
// null clears the list as it sets that pointer to nil.
type policyJSON [][]byte

func (p *policyJSON) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*p = nil
		return nil
	}
	*p = append(*p, bytes.Clone(b))
	return nil
}

// snapshotJSON is SessionSnapshot as restore and rehydrate decode it, with
// the policy left as raw JSON for the server's policyTable.
type snapshotJSON struct {
	Create   CreateRequest `json:"create"`
	Ops      []env.Op      `json:"ops"`
	Policy   policyJSON    `json:"policy"`
	LastStep *StepRecord   `json:"last_step"`
}

// snapshot resolves in's policy through the table. A policy that does not
// decode is a bad_request, like any other part of a snapshot body that does
// not decode.
func (t *policyTable) snapshot(in snapshotJSON) (SessionSnapshot, error) {
	snap := SessionSnapshot{Create: in.Create, Ops: in.Ops, LastStep: in.LastStep}
	if len(in.Policy) > 0 {
		p, err := t.intern(in.Policy...)
		if err != nil {
			return SessionSnapshot{}, coded(CodeBadRequest, fmt.Errorf("policy: %w", err))
		}
		snap.Policy = p
	}
	return snap, nil
}
