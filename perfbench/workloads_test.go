package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestStreamSeeded checks that the seed alone draws a workload's operation
// stream: the same seed gives the same stream and churn batches, another
// seed a different stream.
func TestStreamSeeded(t *testing.T) {
	const poolSize = 32
	for _, s := range specs {
		a, b, c := s.stream(7, poolSize), s.stream(7, poolSize), s.stream(8, poolSize)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different streams", s.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same stream", s.Name)
		}
		if !reflect.DeepEqual(s.churn(7, 3), s.churn(7, 3)) || reflect.DeepEqual(s.churn(7, 3), s.churn(8, 3)) {
			t.Errorf("%s: churn batches do not follow the seed", s.Name)
		}
	}
}

// TestWorkloadRecords checks that BENCHMARK.json lists the workloads in
// the order the benchmark defines them, each with the record of what it
// runs.
func TestWorkloadRecords(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		s := specs[i]
		if w.Name != s.Name || w.Why != s.record() {
			t.Errorf("BENCHMARK.json workload %d is %q: %q\nwant %q: %q", i, w.Name, w.Why, s.Name, s.record())
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, more than 200", w.Name, len(w.Why))
		}
	}
}
