package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/kws"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current engine's output")

// TestGolden renders every workload's verification list and compares it
// with golden.json; -update rewrites the file instead.
func TestGolden(t *testing.T) {
	got := map[string]string{}
	for _, s := range specs {
		e, err := kws.New(s.database())
		if err != nil {
			t.Fatal(err)
		}
		pool, err := s.pool(func(k string) bool { return len(e.Match(k)) > 0 })
		if err != nil {
			t.Fatal(err)
		}
		ds, err := verifyList(context.Background(), e, s, pool)
		if err != nil {
			t.Fatal(err)
		}
		got[s.Name] = digestAll(ds)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: verification list renders to %s, golden.json has %s", name, d, want[name])
		}
	}
}
