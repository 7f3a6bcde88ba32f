package workflow

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestEnsembleJSONRoundTrip(t *testing.T) {
	for _, name := range []string{"msd", "ligo", "toy"} {
		orig, _ := ByName(name)
		path := filepath.Join(t.TempDir(), name+".json")
		if err := orig.SaveJSON(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEnsemble(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Name != orig.Name ||
			loaded.NumTasks() != orig.NumTasks() ||
			loaded.NumWorkflows() != orig.NumWorkflows() {
			t.Fatalf("%s: round trip changed shape", name)
		}
		for j, task := range orig.Tasks {
			if loaded.Tasks[j] != task {
				t.Fatalf("%s: task %d changed: %+v vs %+v", name, j, loaded.Tasks[j], task)
			}
		}
		for wi, wf := range orig.Workflows {
			lw := loaded.Workflows[wi]
			if lw.Name != wf.Name || lw.NumNodes() != wf.NumNodes() {
				t.Fatalf("%s: workflow %d changed", name, wi)
			}
			for ni, n := range wf.Nodes {
				if lw.Nodes[ni].Task != n.Task {
					t.Fatalf("%s/%s: node %d task changed", name, wf.Name, ni)
				}
			}
			for from := range wf.Edges {
				if len(lw.Edges[from]) != len(wf.Edges[from]) {
					t.Fatalf("%s/%s: edges changed at node %d", name, wf.Name, from)
				}
			}
		}
		// The loaded ensemble must be fully usable (roots/topo computed).
		if len(loaded.Workflows[0].Roots()) == 0 {
			t.Fatalf("%s: loaded workflow missing computed roots", name)
		}
	}
}

func TestLoadEnsembleRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"not json":     `{broken`,
		"no name":      `{"tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`,
		"unnamed task": `{"name":"x","tasks":[{"mean_service_sec":1}],"workflows":[{"name":"w","nodes":[],"edges":[]}]}`,
		"dup task":     `{"name":"x","tasks":[{"name":"a","mean_service_sec":1},{"name":"a","mean_service_sec":1}],"workflows":[]}`,
		"bad service":  `{"name":"x","tasks":[{"name":"a","mean_service_sec":0}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`,
		"negative cv":  `{"name":"x","tasks":[{"name":"a","mean_service_sec":1,"service_cv":-1}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`,
		"cv overflow":  `{"name":"x","tasks":[{"name":"a","mean_service_sec":1,"service_cv":1e200}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`,
		"unknown task": `{"name":"x","tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["b"],"edges":[[]]}]}`,
		"cyclic":       `{"name":"x","tasks":[{"name":"a","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["a","a"],"edges":[[1],[0]]}]}`,
		"unused task":  `{"name":"x","tasks":[{"name":"a","mean_service_sec":1},{"name":"b","mean_service_sec":1}],"workflows":[{"name":"w","nodes":["a"],"edges":[[]]}]}`,
	}
	for name, blob := range cases {
		var e Ensemble
		if err := json.Unmarshal([]byte(blob), &e); err == nil {
			t.Fatalf("%s: expected decode error", name)
		}
	}
	if _, err := LoadEnsemble(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
