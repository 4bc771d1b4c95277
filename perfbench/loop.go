package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one operation reports back to its client.
type outcome struct {
	search  bool          // a search; otherwise a mutation
	query   int           // the pool query a search ran
	latency time.Duration // the call alone, without output checks
	failed  bool          // the call failed
	wrong   bool          // the output differed from the query's expected output
}

// tally collects the outcomes of a client, or of a whole run.
type tally struct {
	search, apply []float64 // latencies in ms; +Inf for a failed operation
	queries       []int     // the pool query of each search
	busy          time.Duration
	failed        int // failed calls and wrong outputs
	wrong         int // wrong outputs
}

func (t *tally) add(o outcome) {
	v := ms(o.latency)
	if o.failed || o.wrong {
		v = math.Inf(1)
		t.failed++
	}
	if o.wrong {
		t.wrong++
	}
	if o.search {
		t.search = append(t.search, v)
		t.queries = append(t.queries, o.query)
	} else {
		t.apply = append(t.apply, v)
	}
	t.busy += o.latency
}

func (t *tally) merge(u tally) {
	t.search = append(t.search, u.search...)
	t.queries = append(t.queries, u.queries...)
	t.apply = append(t.apply, u.apply...)
	t.busy += u.busy
	t.failed += u.failed
	t.wrong += u.wrong
}

func (t *tally) attempted() int { return len(t.search) + len(t.apply) }

// count adds a tally's operations to the report. A wrong output fails the
// run, not only its operation.
func (r *report) count(t tally) {
	r.Attempted += t.attempted()
	r.Failed += t.failed
	if t.wrong > 0 {
		r.Correct = false
	}
}

// closedLoop runs n clients until the window closes. Each client takes the
// next operation index, calls do and waits for it before taking another, so
// a slow system receives less load. An operation started before the
// deadline runs to completion. It returns one tally per client.
func closedLoop(n int, window time.Duration, do func(i int64) outcome) []tally {
	var next atomic.Int64
	deadline := time.Now().Add(window)
	out := make([]tally, n)
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				out[c].add(do(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return out
}

// endToEnd fills the end-to-end metrics from the clients' tallies of the
// measured window plus the apply latencies. On the in-process workloads
// every pool query weighs the same in the search metrics however often the
// run happened to draw it: a run ends part-way through a pass over the
// pool, and the queries' costs differ by orders of magnitude.
func endToEnd(log io.Writer, rep *report, s spec, clients []tally, apply tally, setupS, heapMB float64) {
	var all tally
	for _, c := range clients {
		all.merge(c)
	}
	weight := func(int) float64 { return 1 }
	if !s.Serve {
		count := map[int]int{}
		for _, q := range all.queries {
			count[q]++
		}
		weight = func(q int) float64 { return 1 / float64(count[q]) }
	}
	var ws []float64
	for _, q := range all.queries {
		ws = append(ws, weight(q))
	}
	// Searches per second of client time spent in calls: output checks
	// between calls are the benchmark's own work, not the system's.
	qps := 0.0
	for _, c := range clients {
		n, busy := 0.0, 0.0
		for i, d := range c.search {
			w := weight(c.queries[i])
			n += w
			busy += w * d
		}
		for _, d := range c.apply {
			busy += d
		}
		if busy > 0 && !math.IsInf(busy, 1) {
			qps += n / (busy / 1000)
		}
	}
	all.merge(apply)
	rep.count(all)
	rep.set("search_p50_ms", "ms", wquantile(all.search, ws, 0.5))
	rep.set("search_tail_ms", "ms", wquantile(all.search, ws, s.Tail))
	rep.set("search_qps", "1/s", qps)
	rep.set("apply_p50_ms", "ms", median(all.apply))
	rep.set("setup_s", "s", setupS)
	rep.set("heap_mb", "MB", heapMB)
	fmt.Fprintf(log, "searches %d (p99 %.3f p99.9 %.3f) applies %d (p90 %.3f p95 %.3f p99 %.3f)\n", len(all.search),
		quantile(all.search, 0.99), quantile(all.search, 0.999), len(all.apply),
		quantile(all.apply, 0.9), quantile(all.apply, 0.95), quantile(all.apply, 0.99))
}
