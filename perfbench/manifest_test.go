package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and prints, with its units.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("manifest has %d workloads, code %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, man []metric, code []metricDef) {
		if len(man) != len(code) {
			t.Errorf("%s: manifest has %d metrics, code %d", kind, len(man), len(code))
		}
		for i := range min(len(man), len(code)) {
			if man[i].Name != code[i].name || man[i].Unit != code[i].unit {
				t.Errorf("%s %d: manifest %s [%s], code %s [%s]", kind, i, man[i].Name, man[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
}
