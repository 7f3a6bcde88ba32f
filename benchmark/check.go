package main

import (
	"bytes"
	"sort"
)

// stepFacts is what the serve checks need from a step response.
type stepFacts struct {
	window   int
	allocSum int
	policy   bool // "controller" is "policy", not the HPA fallback
}

var (
	keyWindow     = []byte(`"window":`)
	keyAllocation = []byte(`"allocation":[`)
	keyPolicy     = []byte(`"controller":"policy"`)
)

// scanStep reads the window number, the allocation total and the controller
// out of a step response without decoding the whole document: a full JSON
// decode per request would cost the load generator about as much as the
// server spends encoding it, and that cost would sit inside every
// measurement. TestScanStepMatchesJSON holds it to encoding/json's answer.
func scanStep(body []byte) (f stepFacts, ok bool) {
	i := bytes.Index(body, keyWindow)
	if i < 0 {
		return f, false
	}
	var n int
	f.window, n = scanInt(body[i+len(keyWindow):])
	if n == 0 {
		return f, false
	}
	i = bytes.Index(body, keyAllocation)
	if i < 0 {
		return f, false
	}
	rest := body[i+len(keyAllocation):]
	for len(rest) > 0 && rest[0] != ']' {
		v, n := scanInt(rest)
		if n == 0 {
			return f, false
		}
		f.allocSum += v
		rest = rest[n:]
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	f.policy = bytes.Contains(body, keyPolicy)
	return f, true
}

// scanInt parses a non-negative decimal prefix of b, returning the value and
// the number of bytes used (zero when b does not start with a digit).
func scanInt(b []byte) (v, n int) {
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + int(b[n]-'0')
		n++
	}
	return v, n
}

// serveChecker accumulates, over every phase of a serve run, the window
// numbers each session acknowledged, and verifies at the end that no step
// was lost, repeated or applied without being acknowledged.
type serveChecker struct {
	windows [][]int32
}

func newServeChecker(sessions int) *serveChecker {
	return &serveChecker{windows: make([][]int32, sessions)}
}

// add folds one phase's samples.
func (c *serveChecker) add(samples []sample) {
	for _, s := range samples {
		if s.op.Kind == opStep && s.ok {
			c.windows[s.op.Session] = append(c.windows[s.op.Session], s.window)
		}
	}
}

// verify checks that each session's acknowledged windows are exactly
// 1, 2, …, n — each step advanced the session by one window, whichever
// worker sent it — and that the session itself reports n windows
// (finalWindows[i] is the "windows" of its last GET).
func (c *serveChecker) verify(res *runResult, finalWindows []int) {
	for sess, ws := range c.windows {
		sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
		for i, w := range ws {
			if int(w) != i+1 {
				res.problemf("session %d: acknowledged window %d where %d was due (skipped or repeated step)", sess, w, i+1)
				break
			}
		}
		if finalWindows[sess] != len(ws) {
			res.problemf("session %d reports %d windows but %d steps were acknowledged", sess, finalWindows[sess], len(ws))
		}
	}
}
