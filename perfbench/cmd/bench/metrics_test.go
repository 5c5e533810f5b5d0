package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"p2kvs/perfbench/internal/load"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark's code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)

	if len(doc.Workloads) != len(load.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(load.Workloads))
	}
	for i, w := range load.Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the code %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestMetricSetEmitsOnlyDeclaredMetrics(t *testing.T) {
	m := newMetricSet(endToEnd)
	for _, d := range endToEnd[1:] {
		m.set(d.name, 1)
	}
	if _, err := m.metrics(); err == nil {
		t.Error("a set missing ops_per_s was accepted")
	}
	m.ratio("ops_per_s", 1, 0)
	ms, err := m.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("emitted %d metrics, want %d", len(ms), len(endToEnd))
	}
	defer func() {
		if recover() == nil {
			t.Error("an undeclared metric was accepted")
		}
	}()
	m.set("not_declared", 1)
}
