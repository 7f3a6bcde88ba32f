// http-agent: drive the emulated environment through the HTTP gym API the
// way an external (non-Go) agent would — create a session, inject a burst,
// and control it with a simple backlog-proportional policy.
//
// The example starts an in-process server on a loopback port; against a
// real deployment you would run `miras serve` and point -addr at it.
//
//	go run ./examples/http-agent
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"miras/internal/httpapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "http-agent:", err)
		os.Exit(1)
	}
}

func run() error {
	// In-process server; swap for a remote URL in a real deployment.
	ts := httptest.NewServer(httpapi.NewServer().Handler())
	defer ts.Close()
	base := ts.URL
	fmt.Printf("gym server at %s\n", base)

	// 1. Create a session on the MSD ensemble with the paper's budget.
	var info httpapi.SessionInfo
	if err := post(base+"/v1/sessions", httpapi.CreateRequest{
		Ensemble: "msd", Budget: 14, Seed: 11,
	}, &info); err != nil {
		return err
	}
	fmt.Printf("session %s: %d microservices, budget %d, %gs windows\n",
		info.ID, info.StateDim, info.Budget, info.WindowSec)

	// 2. Inject a burst.
	if err := post(fmt.Sprintf("%s/v1/sessions/%s/burst", base, info.ID),
		httpapi.BurstRequest{Counts: []int{100, 60, 100}}, nil); err != nil {
		return err
	}

	// 3. Control loop: allocate proportionally to backlog (+1 smoothing).
	state := make([]float64, info.StateDim)
	fmt.Println("\nwindow  allocation    ΣWIP   done  reward")
	for k := 0; k < 15; k++ {
		alloc := proportional(state, info.Budget)
		var step httpapi.StepResponse
		if err := post(fmt.Sprintf("%s/v1/sessions/%s/step", base, info.ID),
			httpapi.StepRequest{Allocation: alloc}, &step); err != nil {
			return err
		}
		state = step.State
		var wip float64
		for _, w := range state {
			wip += w
		}
		fmt.Printf("%6d  %-13s %-6.0f %-5d %.0f\n",
			k, fmt.Sprint(alloc), wip, step.Completed, step.Reward)
	}

	// 4. Clean up.
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/sessions/%s", base, info.ID), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Println("\nsession deleted — any language that can speak JSON can train here")
	return nil
}

// proportional splits the budget by backlog share with +1 smoothing so no
// microservice is ever starved.
func proportional(wip []float64, budget int) []int {
	weights := make([]float64, len(wip))
	var total float64
	for i, w := range wip {
		weights[i] = w + 1
		total += weights[i]
	}
	alloc := make([]int, len(wip))
	used := 0
	for i, w := range weights {
		alloc[i] = int(float64(budget) * w / total)
		used += alloc[i]
	}
	for i := 0; used < budget; i = (i + 1) % len(alloc) {
		alloc[i]++
		used++
	}
	return alloc
}

// post sends a JSON body and decodes a JSON response into out (if non-nil).
func post(url string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", url, resp.Status, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
