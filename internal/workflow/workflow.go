// Package workflow models scientific workflows as directed acyclic graphs of
// task nodes. The emulated cluster reads an Ensemble's roots, successors and
// node tasks directly where the paper's infrastructure queries its Task
// Dependency Service, a ZooKeeper ensemble (DESIGN.md §1).
//
// Terminology follows §II of the paper: an Ensemble supports N workflow
// types composed from J task types. Each task type is realised by one
// microservice (a queue plus a pool of consumers); each workflow type is a
// DAG whose nodes are instances of task types. A workflow may use the same
// task type at several nodes, and different workflows may share task types —
// the sharing is what produces the cascading resource-allocation effects the
// paper highlights.
package workflow

import (
	"fmt"
	"math"
)

// TaskType identifies one microservice (task) type within an ensemble,
// in the range [0, J).
type TaskType int

// TaskDef describes one task type's service characteristics. Service times
// in the emulation are log-normal with the given mean and coefficient of
// variation, reproducing the paper's "processing time of each microservice
// is not fixed, due to variant sizes of input data".
type TaskDef struct {
	// Name is the human-readable task name (e.g. "Inspiral").
	Name string
	// MeanServiceSec is the mean per-request processing time in seconds
	// for a single consumer.
	MeanServiceSec float64
	// ServiceCV is the coefficient of variation of the service time.
	ServiceCV float64
}

// Node is one vertex of a workflow DAG: an instance of a task type.
type Node struct {
	// Task is the task type this node executes.
	Task TaskType
	// Name optionally labels the node; defaults to the task name.
	Name string
}

// Type is one workflow type: a DAG over task-type nodes.
type Type struct {
	// Name is the workflow type's name (e.g. "CAT").
	Name string
	// Nodes are the DAG vertices.
	Nodes []Node
	// Edges is the adjacency list: Edges[i] lists the successor node
	// indices of node i.
	Edges [][]int

	preds [][]int
	roots []int
	order []int // topological order
}

// NewType builds and validates a workflow type. It returns an error if the
// graph has out-of-range edges, is cyclic, or has no nodes.
func NewType(name string, nodes []Node, edges [][]int) (*Type, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workflow %q: no nodes", name)
	}
	if len(edges) != len(nodes) {
		return nil, fmt.Errorf("workflow %q: %d edge lists for %d nodes", name, len(edges), len(nodes))
	}
	t := &Type{Name: name, Nodes: nodes, Edges: edges}
	t.preds = make([][]int, len(nodes))
	indeg := make([]int, len(nodes))
	for from, succs := range edges {
		seen := map[int]bool{}
		for _, to := range succs {
			if to < 0 || to >= len(nodes) {
				return nil, fmt.Errorf("workflow %q: edge %d→%d out of range", name, from, to)
			}
			if to == from {
				return nil, fmt.Errorf("workflow %q: self-loop at node %d", name, from)
			}
			if seen[to] {
				return nil, fmt.Errorf("workflow %q: duplicate edge %d→%d", name, from, to)
			}
			seen[to] = true
			t.preds[to] = append(t.preds[to], from)
			indeg[to]++
		}
	}
	// Kahn's algorithm: topological order doubles as the cycle check.
	var queue []int
	remaining := append([]int(nil), indeg...)
	for i, d := range remaining {
		if d == 0 {
			queue = append(queue, i)
			t.roots = append(t.roots, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		t.order = append(t.order, n)
		for _, succ := range edges[n] {
			remaining[succ]--
			if remaining[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(t.order) != len(nodes) {
		return nil, fmt.Errorf("workflow %q: graph contains a cycle", name)
	}
	return t, nil
}

// MustType is NewType that panics on error, for the static ensemble tables.
func MustType(name string, nodes []Node, edges [][]int) *Type {
	t, err := NewType(name, nodes, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// CheckConsistency re-verifies the invariants NewType established: the
// predecessor lists mirror Edges exactly, the roots are precisely the
// zero-indegree nodes, and the cached topological order is a valid ordering
// covering every node. It exists for the runtime-invariant layer
// (internal/invariant): the emulated cluster's join synchronisation counts
// down Predecessors, so silent corruption of these caches would deadlock or
// double-publish DAG nodes without failing any existing test.
func (t *Type) CheckConsistency() error {
	n := len(t.Nodes)
	if len(t.Edges) != n || len(t.preds) != n {
		return fmt.Errorf("workflow %q: %d nodes, %d edge lists, %d pred lists",
			t.Name, n, len(t.Edges), len(t.preds))
	}
	// Rebuild indegrees from Edges and mirror-check preds.
	indeg := make([]int, n)
	for from, succs := range t.Edges {
		for _, to := range succs {
			if to < 0 || to >= n {
				return fmt.Errorf("workflow %q: edge %d→%d out of range", t.Name, from, to)
			}
			indeg[to]++
			found := false
			for _, p := range t.preds[to] {
				if p == from {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("workflow %q: edge %d→%d missing from predecessor list", t.Name, from, to)
			}
		}
	}
	for i, preds := range t.preds {
		if len(preds) != indeg[i] {
			return fmt.Errorf("workflow %q: node %d has %d predecessors, indegree %d",
				t.Name, i, len(preds), indeg[i])
		}
	}
	// Roots are exactly the zero-indegree nodes.
	rootSet := make(map[int]bool, len(t.roots))
	for _, r := range t.roots {
		rootSet[r] = true
	}
	for i, d := range indeg {
		if (d == 0) != rootSet[i] {
			return fmt.Errorf("workflow %q: node %d indegree %d but root=%v",
				t.Name, i, d, rootSet[i])
		}
	}
	// The cached order is a permutation respecting every edge.
	if len(t.order) != n {
		return fmt.Errorf("workflow %q: topo order covers %d of %d nodes", t.Name, len(t.order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, node := range t.order {
		if node < 0 || node >= n || seen[node] {
			return fmt.Errorf("workflow %q: topo order is not a permutation", t.Name)
		}
		seen[node] = true
		pos[node] = i
	}
	for from, succs := range t.Edges {
		for _, to := range succs {
			if pos[from] >= pos[to] {
				return fmt.Errorf("workflow %q: topo order places %d after successor %d", t.Name, from, to)
			}
		}
	}
	return nil
}

// Roots returns the indices of nodes with no predecessors — the tasks the
// workflow invoker submits first.
func (t *Type) Roots() []int { return t.roots }

// Successors returns the successor node indices of node i.
func (t *Type) Successors(i int) []int { return t.Edges[i] }

// Predecessors returns the predecessor node indices of node i.
func (t *Type) Predecessors(i int) []int { return t.preds[i] }

// TopoOrder returns a topological ordering of the node indices.
func (t *Type) TopoOrder() []int { return t.order }

// NumNodes returns the number of DAG vertices.
func (t *Type) NumNodes() int { return len(t.Nodes) }

// Ensemble is a family of workflow types over a shared set of task types —
// the unit the paper calls a "workflow computing ensemble" (MSD, LIGO).
type Ensemble struct {
	// Name identifies the ensemble ("msd", "ligo").
	Name string
	// Tasks defines the J task types.
	Tasks []TaskDef
	// Workflows defines the N workflow types.
	Workflows []*Type
}

// Validate checks internal consistency: every task type's service time must
// be one the emulator can draw, every node's task type must be in range and
// every task type must be used by at least one workflow.
func (e *Ensemble) Validate() error {
	if len(e.Tasks) == 0 || len(e.Workflows) == 0 {
		return fmt.Errorf("ensemble %q: empty tasks or workflows", e.Name)
	}
	for _, t := range e.Tasks {
		if !(t.MeanServiceSec > 0) || math.IsInf(t.MeanServiceSec, 1) {
			return fmt.Errorf("ensemble %q: task %q mean service time %g must be finite and positive",
				e.Name, t.Name, t.MeanServiceSec)
		}
		// A cv whose square overflows makes every log-normal draw NaN.
		if !(t.ServiceCV >= 0) || math.IsInf(t.ServiceCV*t.ServiceCV, 1) {
			return fmt.Errorf("ensemble %q: task %q service CV %g must be non-negative with a finite square",
				e.Name, t.Name, t.ServiceCV)
		}
	}
	used := make([]bool, len(e.Tasks))
	for _, wf := range e.Workflows {
		for i, n := range wf.Nodes {
			if int(n.Task) < 0 || int(n.Task) >= len(e.Tasks) {
				return fmt.Errorf("ensemble %q: workflow %q node %d has task %d out of range",
					e.Name, wf.Name, i, n.Task)
			}
			used[n.Task] = true
		}
	}
	for j, u := range used {
		if !u {
			return fmt.Errorf("ensemble %q: task type %q is unused", e.Name, e.Tasks[j].Name)
		}
	}
	return nil
}

// NumTasks returns J, the number of task types (microservices).
func (e *Ensemble) NumTasks() int { return len(e.Tasks) }

// NumWorkflows returns N, the number of workflow types.
func (e *Ensemble) NumWorkflows() int { return len(e.Workflows) }

// WorkflowByName returns the workflow type with the given name.
func (e *Ensemble) WorkflowByName(name string) (*Type, error) {
	for _, wf := range e.Workflows {
		if wf.Name == name {
			return wf, nil
		}
	}
	return nil, fmt.Errorf("ensemble %q: no workflow %q", e.Name, name)
}

// TaskNames returns the task names in task-type order.
func (e *Ensemble) TaskNames() []string {
	names := make([]string, len(e.Tasks))
	for i, t := range e.Tasks {
		names[i] = t.Name
	}
	return names
}

// WorkflowNames returns the workflow names in workflow-type order.
func (e *Ensemble) WorkflowNames() []string {
	names := make([]string, len(e.Workflows))
	for i, w := range e.Workflows {
		names[i] = w.Name
	}
	return names
}
