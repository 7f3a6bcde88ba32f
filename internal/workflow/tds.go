package workflow

import "fmt"

// TDS is the Task Dependency Service: the component that, in the paper's
// infrastructure, is a ZooKeeper ensemble storing the task-dependency table
// (Figure 2). The workflow invoker asks it which task(s) of a workflow run
// first, and each task consumer asks it which task(s) follow the one it just
// finished.
//
// In this reproduction the TDS is an in-process lookup over validated
// workflow DAGs; the paper's replicated ZooKeeper ensemble is not modelled,
// since consistency concerns are out of scope exactly as they are in the
// paper's evaluation.
type TDS struct {
	ensemble *Ensemble
	queries  uint64
}

// NewTDS returns a TDS over the given ensemble.
func NewTDS(e *Ensemble) (*TDS, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("tds: %w", err)
	}
	return &TDS{ensemble: e}, nil
}

// Ensemble returns the ensemble this TDS serves.
func (t *TDS) Ensemble() *Ensemble { return t.ensemble }

// InitialNodes answers "which task(s) of workflow type wf should be
// processed first" — step 1 in Figure 1 of the paper.
func (t *TDS) InitialNodes(wf int) []int {
	t.queries++
	return t.ensemble.Workflows[wf].Roots()
}

// SuccessorNodes answers "which task(s) follow node within workflow wf" —
// the query a consumer issues after finishing a request (step 4).
func (t *TDS) SuccessorNodes(wf, node int) []int {
	t.queries++
	return t.ensemble.Workflows[wf].Successors(node)
}

// TaskOf returns the task type that node of workflow wf executes.
func (t *TDS) TaskOf(wf, node int) TaskType {
	t.queries++
	return t.ensemble.Workflows[wf].Nodes[node].Task
}

// Queries returns the total number of TDS lookups served, mirroring the
// real system's observable query load.
func (t *TDS) Queries() uint64 { return t.queries }
