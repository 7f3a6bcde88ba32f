package baselines

import (
	"miras/internal/env"
)

// HPA is a Kubernetes horizontal-pod-autoscaler-style threshold controller,
// added beyond the paper's four comparisons as the rule-based family its
// related-work section dismisses ("rule-based, heuristics approaches"). Per
// microservice it scales the consumer count toward
// current · (utilization / target), clamped to ±hpaMaxStep per window,
// then fits the whole vector into the budget proportionally. It has no model
// and no lookahead — pure reactive feedback.
type HPA struct {
	budget int
	last   []int
}

const (
	// hpaTargetUtilization is the per-consumer busy fraction HPA steers
	// to, the common HPA default.
	hpaTargetUtilization = 0.7
	// hpaMaxStep caps the per-window change per microservice.
	hpaMaxStep = 3
)

// Compile-time interface check.
var _ env.Controller = (*HPA)(nil)

// NewHPA returns a threshold autoscaler.
func NewHPA(budget int) *HPA {
	return &HPA{budget: budget}
}

// Name implements env.Controller.
func (h *HPA) Name() string { return "hpa" }

// Reset implements env.Controller.
func (h *HPA) Reset() { h.last = nil }

// Decide implements env.Controller.
func (h *HPA) Decide(prev env.StepResult) []int {
	j := len(prev.Stats.WIP)
	if h.last == nil {
		// Start from an even split.
		h.last = env.UniformAllocation(j, h.budget)
	}
	next := make([]int, j)
	for i := 0; i < j; i++ {
		cur := h.last[i]
		if cur == 0 {
			cur = 1 // a zero-replica service can never report utilization
		}
		util := 0.0
		if prev.Stats.Utilization != nil {
			util = prev.Stats.Utilization[i]
		}
		// Queued work counts as demand even if utilization saturated at 1.
		if prev.Stats.WIP[i] > float64(cur) {
			util += prev.Stats.WIP[i] / float64(cur) * 0.1
		}
		desired := int(float64(cur)*util/hpaTargetUtilization + 0.5)
		if desired > cur+hpaMaxStep {
			desired = cur + hpaMaxStep
		}
		if desired < cur-hpaMaxStep {
			desired = cur - hpaMaxStep
		}
		if desired < 0 {
			desired = 0
		}
		next[i] = desired
	}
	next = env.ClampToBudget(next, h.budget)
	h.last = next
	return next
}
