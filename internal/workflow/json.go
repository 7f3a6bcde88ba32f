package workflow

import (
	"encoding/json"
	"fmt"
	"os"
)

// ensembleJSON is the on-disk schema for custom ensembles, so deployments
// can describe their own workflows without recompiling:
//
//	{
//	  "name": "genomics",
//	  "tasks": [{"name": "Align", "mean_service_sec": 5, "service_cv": 0.5}],
//	  "workflows": [{
//	    "name": "Full",
//	    "nodes": ["Align", "Sort"],
//	    "edges": [[1], []]
//	  }]
//	}
//
// Workflow nodes reference tasks by name.
type ensembleJSON struct {
	Name      string         `json:"name"`
	Tasks     []taskJSON     `json:"tasks"`
	Workflows []workflowJSON `json:"workflows"`
}

type taskJSON struct {
	Name           string  `json:"name"`
	MeanServiceSec float64 `json:"mean_service_sec"`
	ServiceCV      float64 `json:"service_cv"`
}

type workflowJSON struct {
	Name  string   `json:"name"`
	Nodes []string `json:"nodes"`
	Edges [][]int  `json:"edges"`
}

// MarshalJSON implements json.Marshaler.
func (e *Ensemble) MarshalJSON() ([]byte, error) {
	out := ensembleJSON{Name: e.Name}
	for _, t := range e.Tasks {
		out.Tasks = append(out.Tasks, taskJSON{
			Name:           t.Name,
			MeanServiceSec: t.MeanServiceSec,
			ServiceCV:      t.ServiceCV,
		})
	}
	for _, wf := range e.Workflows {
		wj := workflowJSON{Name: wf.Name, Edges: wf.Edges}
		for _, n := range wf.Nodes {
			wj.Nodes = append(wj.Nodes, e.Tasks[n.Task].Name)
		}
		out.Workflows = append(out.Workflows, wj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the DAGs and task
// references.
func (e *Ensemble) UnmarshalJSON(data []byte) error {
	var in ensembleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("workflow: decode ensemble: %w", err)
	}
	if in.Name == "" {
		return fmt.Errorf("workflow: ensemble has no name")
	}
	tasks := make([]TaskDef, 0, len(in.Tasks))
	byName := make(map[string]TaskType, len(in.Tasks))
	for i, t := range in.Tasks {
		if t.Name == "" {
			return fmt.Errorf("workflow: task %d has no name", i)
		}
		if _, dup := byName[t.Name]; dup {
			return fmt.Errorf("workflow: duplicate task name %q", t.Name)
		}
		byName[t.Name] = TaskType(i)
		tasks = append(tasks, TaskDef{
			Name:           t.Name,
			MeanServiceSec: t.MeanServiceSec,
			ServiceCV:      t.ServiceCV,
		})
	}
	workflows := make([]*Type, 0, len(in.Workflows))
	for _, wj := range in.Workflows {
		nodes := make([]Node, 0, len(wj.Nodes))
		for _, name := range wj.Nodes {
			tt, ok := byName[name]
			if !ok {
				return fmt.Errorf("workflow: workflow %q references unknown task %q", wj.Name, name)
			}
			nodes = append(nodes, Node{Task: tt})
		}
		wf, err := NewType(wj.Name, nodes, wj.Edges)
		if err != nil {
			return err
		}
		workflows = append(workflows, wf)
	}
	decoded := Ensemble{Name: in.Name, Tasks: tasks, Workflows: workflows}
	if err := decoded.Validate(); err != nil {
		return err
	}
	*e = decoded
	return nil
}

// SaveJSON writes the ensemble definition to path.
func (e *Ensemble) SaveJSON(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("workflow: marshal ensemble: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("workflow: save ensemble: %w", err)
	}
	return nil
}

// LoadEnsemble reads and validates an ensemble definition from path.
func LoadEnsemble(path string) (*Ensemble, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workflow: load ensemble: %w", err)
	}
	var e Ensemble
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	return &e, nil
}
