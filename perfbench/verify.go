package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/kws"
)

// golden.json maps each workload to the digest of its verification list
// as the code that defined the benchmark rendered it. Dataset and pool are
// fixed, so the digest holds for every seed.
//
//go:embed golden.json
var goldenJSON []byte

func goldenDigests() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// verifyList searches the first s.Verify queries one after another, fully
// sequentially (Parallelism 1), and returns their digests. It also warms
// the engine's searcher before the measured window.
func verifyList(ctx context.Context, e *kws.Engine, s spec, queries [][]string) ([]string, error) {
	out := make([]string, s.Verify)
	for i := range out {
		q := s.query(queries[i])
		q.Parallelism = 1
		res, err := e.Search(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("verification query %q: %w", strings.Join(queries[i], " "), err)
		}
		out[i] = digest(res)
	}
	return out, nil
}

// checkGolden compares the verification list with golden.json. It counts
// the list as s.Verify attempted operations, all failed on a mismatch.
func checkGolden(rep *report, s spec, digests []string) error {
	g, err := goldenDigests()
	if err != nil {
		return err
	}
	want, ok := g[s.Name]
	if !ok {
		return fmt.Errorf("golden.json has no digest for %s", s.Name)
	}
	rep.Attempted += len(digests)
	if want != digestAll(digests) {
		rep.Correct = false
		rep.Failed += len(digests)
	}
	return nil
}

// expected holds the digest each distinct query must render to: the
// verification list's up front, any other query's from its first run.
// Every later run of a query must render identically — the engines are
// deterministic at any parallelism and the churn batches change no data.
type expected struct {
	mu      sync.Mutex
	digests map[int]string
	ops     map[int]int // operations checked, per query
}

func newExpected(verified []string) *expected {
	x := &expected{digests: map[int]string{}, ops: map[int]int{}}
	for i, d := range verified {
		x.digests[i] = d
	}
	return x
}

// check reports whether query renders to d, recording d on first sight.
func (x *expected) check(query int, d string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ops[query]++
	want, ok := x.digests[query]
	if !ok {
		x.digests[query] = d
		return true
	}
	return want == d
}
