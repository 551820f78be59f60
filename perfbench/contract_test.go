package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(names, defined) {
		t.Errorf("workloads %v, benchmark defines %v", names, defined)
	}

	e2e := map[string]string{}
	for _, e := range spec.EndToEnd {
		e2e[e.Name] = e.Unit
	}
	want := map[string]string{}
	for n, m := range endToEnd(&result{}) {
		want[n] = m.Unit
	}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end %v, benchmark prints %v", e2e, want)
	}

	var layers []entry
	for _, l := range layerCatalog() {
		layers = append(layers, entry{l.name, l.unit})
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		js, _ := json.Marshal(layers)
		t.Errorf("per_layer differs from the traced run's metrics; want %s", js)
	}
}
