package workflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTypeRejectsEmptyGraph(t *testing.T) {
	if _, err := NewType("x", nil, nil); err == nil {
		t.Fatal("expected error for empty node list")
	}
}

func TestNewTypeRejectsEdgeListMismatch(t *testing.T) {
	if _, err := NewType("x", []Node{{Task: 0}}, [][]int{{}, {}}); err == nil {
		t.Fatal("expected error for edge list length mismatch")
	}
}

func TestNewTypeRejectsOutOfRangeEdge(t *testing.T) {
	if _, err := NewType("x", []Node{{Task: 0}, {Task: 1}}, [][]int{{5}, {}}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestNewTypeRejectsSelfLoop(t *testing.T) {
	if _, err := NewType("x", []Node{{Task: 0}}, [][]int{{0}}); err == nil {
		t.Fatal("expected error for self loop")
	}
}

func TestNewTypeRejectsCycle(t *testing.T) {
	if _, err := NewType("x", []Node{{Task: 0}, {Task: 1}}, [][]int{{1}, {0}}); err == nil {
		t.Fatal("expected error for cycle")
	}
}

func TestNewTypeRejectsDuplicateEdge(t *testing.T) {
	if _, err := NewType("x", []Node{{Task: 0}, {Task: 1}}, [][]int{{1, 1}, {}}); err == nil {
		t.Fatal("expected error for duplicate edge")
	}
}

func TestRootsAndSuccessors(t *testing.T) {
	// Diamond: 0 → (1, 2) → 3.
	wf := MustType("diamond",
		[]Node{{Task: 0}, {Task: 1}, {Task: 2}, {Task: 3}},
		[][]int{{1, 2}, {3}, {3}, {}})
	roots := wf.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots=%v, want [0]", roots)
	}
	if got := wf.Successors(0); len(got) != 2 {
		t.Fatalf("successors(0)=%v", got)
	}
	if got := wf.Predecessors(3); len(got) != 2 {
		t.Fatalf("predecessors(3)=%v", got)
	}
	if wf.NumNodes() != 4 {
		t.Fatalf("NumNodes=%d", wf.NumNodes())
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	wf := MustType("diamond",
		[]Node{{Task: 0}, {Task: 1}, {Task: 2}, {Task: 3}},
		[][]int{{1, 2}, {3}, {3}, {}})
	pos := make(map[int]int)
	for i, n := range wf.TopoOrder() {
		pos[n] = i
	}
	for from, succs := range wf.Edges {
		for _, to := range succs {
			if pos[from] >= pos[to] {
				t.Fatalf("topo order violates edge %d→%d", from, to)
			}
		}
	}
}

func TestMultiRootGraph(t *testing.T) {
	// Two roots joining: (0, 1) → 2.
	wf := MustType("join",
		[]Node{{Task: 0}, {Task: 1}, {Task: 2}},
		[][]int{{2}, {2}, {}})
	if len(wf.Roots()) != 2 {
		t.Fatalf("roots=%v, want two roots", wf.Roots())
	}
}

func TestMSDEnsembleStructure(t *testing.T) {
	e := NewMSD()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.NumTasks() != 4 {
		t.Fatalf("MSD task count=%d, want 4 (paper §VI-A1)", e.NumTasks())
	}
	if e.NumWorkflows() != 3 {
		t.Fatalf("MSD workflow count=%d, want 3 (paper §VI-A1)", e.NumWorkflows())
	}
	for _, name := range []string{"Type1", "Type2", "Type3"} {
		if _, err := e.WorkflowByName(name); err != nil {
			t.Fatalf("missing workflow %s: %v", name, err)
		}
	}
	// Type1 and Type2 share Extract and Align — cascading-effect setup.
	t1, _ := e.WorkflowByName("Type1")
	t2, _ := e.WorkflowByName("Type2")
	if !usesTask(t1, MSDExtract) || !usesTask(t2, MSDExtract) {
		t.Fatal("Type1 and Type2 should share the Extract task")
	}
}

// usesTask reports whether any node of wf runs task type j.
func usesTask(wf *Type, j TaskType) bool {
	for _, n := range wf.Nodes {
		if n.Task == j {
			return true
		}
	}
	return false
}

func TestLIGOEnsembleStructure(t *testing.T) {
	e := NewLIGO()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.NumTasks() != 9 {
		t.Fatalf("LIGO task count=%d, want 9 (paper §VI-A1)", e.NumTasks())
	}
	if e.NumWorkflows() != 4 {
		t.Fatalf("LIGO workflow count=%d, want 4 (paper §VI-A1)", e.NumWorkflows())
	}
	for _, name := range []string{"DataFind", "CAT", "Full", "Injection"} {
		if _, err := e.WorkflowByName(name); err != nil {
			t.Fatalf("missing workflow %s: %v", name, err)
		}
	}
	// §VI-D: Coire terminates CAT, Full, and Injection.
	for _, name := range []string{"CAT", "Full", "Injection"} {
		wf, _ := e.WorkflowByName(name)
		if !usesTask(wf, LIGOCoire) {
			t.Fatalf("workflow %s should use Coire", name)
		}
	}
	if e.Tasks[LIGOCoire].Name != "Coire" {
		t.Fatalf("task %d name=%q, want Coire", LIGOCoire, e.Tasks[LIGOCoire].Name)
	}
}

func TestToyEnsemble(t *testing.T) {
	e := Toy()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.NumTasks() != 2 || e.NumWorkflows() != 1 {
		t.Fatal("toy ensemble shape wrong")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"msd", "ligo", "toy"} {
		e, ok := ByName(name)
		if !ok || e.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName should fail for unknown name")
	}
}

func TestEnsembleValidateCatchesUnusedTask(t *testing.T) {
	e := &Ensemble{
		Name:      "bad",
		Tasks:     []TaskDef{{Name: "a", MeanServiceSec: 1}, {Name: "unused", MeanServiceSec: 1}},
		Workflows: []*Type{MustType("w", []Node{{Task: 0}}, [][]int{{}})},
	}
	if err := e.Validate(); err == nil {
		t.Fatal("expected error for unused task type")
	}
}

func TestEnsembleValidateCatchesOutOfRangeTask(t *testing.T) {
	e := &Ensemble{
		Name:      "bad",
		Tasks:     []TaskDef{{Name: "a", MeanServiceSec: 1}},
		Workflows: []*Type{MustType("w", []Node{{Task: 7}}, [][]int{{}})},
	}
	if err := e.Validate(); err == nil {
		t.Fatal("expected error for out-of-range task type")
	}
}

// TestEnsembleValidateCatchesBadServiceTimes: each of these passed
// validation once and then panicked the emulator's first window, either
// scheduling an event at NaN or drawing with a non-positive mean.
func TestEnsembleValidateCatchesBadServiceTimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, task := range []TaskDef{
		{Name: "zero mean", MeanServiceSec: 0},
		{Name: "negative mean", MeanServiceSec: -1},
		{Name: "NaN mean", MeanServiceSec: nan},
		{Name: "infinite mean", MeanServiceSec: inf},
		{Name: "negative cv", MeanServiceSec: 1, ServiceCV: -0.5},
		{Name: "NaN cv", MeanServiceSec: 1, ServiceCV: nan},
		{Name: "infinite cv", MeanServiceSec: 1, ServiceCV: inf},
		{Name: "cv squared overflows", MeanServiceSec: 1, ServiceCV: 1e200},
	} {
		e := &Ensemble{
			Name:      "bad",
			Tasks:     []TaskDef{task},
			Workflows: []*Type{MustType("w", []Node{{Task: 0}}, [][]int{{}})},
		}
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate accepted mean %g cv %g", task.Name, task.MeanServiceSec, task.ServiceCV)
		}
	}
	ok := &Ensemble{
		Name:      "ok",
		Tasks:     []TaskDef{{Name: "a", MeanServiceSec: 1e-3, ServiceCV: 1e150}},
		Workflows: []*Type{MustType("w", []Node{{Task: 0}}, [][]int{{}})},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("a large but drawable cv: %v", err)
	}
}

// TestTDSQueries checks the three Task Dependency Service lookups the cluster
// makes against an ensemble: a workflow's initial nodes, a node's successors
// and a node's task type.
func TestTDSQueries(t *testing.T) {
	e := NewMSD()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Type3 is the fork-join workflow: Extract → (Align, Segment) → Render.
	t3 := e.Workflows[2]
	if roots := t3.Roots(); len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("Type3 roots=%v, want [0]", roots)
	}
	if succ := t3.Successors(0); len(succ) != 2 {
		t.Fatalf("Type3 successors of 0=%v, want 2 successors", succ)
	}
	if got := t3.Nodes[3].Task; got != MSDRender {
		t.Fatalf("Type3 node 3 task=%d, want Render", got)
	}
}

// TestTDSRejectsBadInput checks that an ensemble with no tasks or workflows
// fails validation, so the cluster never serves lookups over it.
func TestTDSRejectsBadInput(t *testing.T) {
	bad := &Ensemble{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for invalid ensemble")
	}
}

// Property: every validly constructed random DAG has a topological order
// containing all nodes exactly once, and every non-root node is reachable
// from the root set along edges.
func TestRandomDAGInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		nodes := make([]Node, n)
		edges := make([][]int, n)
		// Random DAG: only forward edges i → j with i < j.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges[i] = append(edges[i], j)
				}
			}
		}
		wf, err := NewType("rand", nodes, edges)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, v := range wf.TopoOrder() {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		if len(seen) != n {
			return false
		}
		// Reachability from roots covers all nodes (true for forward-edge
		// construction since any node without preds is itself a root).
		reach := map[int]bool{}
		var stack []int
		stack = append(stack, wf.Roots()...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[v] {
				continue
			}
			reach[v] = true
			stack = append(stack, wf.Successors(v)...)
		}
		return len(reach) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
