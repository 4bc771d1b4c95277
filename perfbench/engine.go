package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/kws"
)

// The in-process workloads apply insert+delete batches after their search
// window, one at a time: at least minApplies, and more until applyBudget
// has passed or maxApplies were applied.
const (
	minApplies  = 1000
	maxApplies  = 100000
	applyBudget = 2 * time.Second
)

// runEngine runs an in-process workload: closed-loop clients calling the
// uncached Engine.Search, then in-memory Engine.Apply batches.
func runEngine(cfg config, rep *report) error {
	s := cfg.spec
	ctx := context.Background()
	db := s.database()
	setupS, err := medianSetup(func() (time.Duration, error) {
		begin := time.Now()
		_, err := kws.New(db)
		return time.Since(begin), err
	})
	if err != nil {
		return err
	}
	e, err := kws.New(db)
	if err != nil {
		return err
	}
	queries, err := s.pool(func(k string) bool { return len(e.Match(k)) > 0 })
	if err != nil {
		return err
	}
	ops := s.stream(cfg.seed, len(queries))
	verified, err := verifyList(ctx, e, s, queries)
	if err != nil {
		return err
	}
	if err := checkGolden(rep, s, verified); err != nil {
		return err
	}
	heapMB := liveHeapMB()
	want := newExpected(verified)

	// search runs operation i; with a tracer it records the search as a
	// span and decomposes it afterwards.
	search := func(i int64, tr *tracer, d *decomposer) outcome {
		query := ops[i%int64(len(ops))].Query
		kw := queries[query]
		id := tr.begin("kws.search", i, 0)
		begin := time.Now()
		res, err := e.Search(ctx, s.query(kw))
		out := outcome{search: true, query: query, latency: time.Since(begin), failed: err != nil}
		tr.end(id)
		if err == nil {
			out.wrong = !want.check(query, digest(res))
		}
		if d != nil && d.run(ctx, kw, i, 0, false) != nil {
			out.failed = true
		}
		return out
	}

	if !cfg.trace {
		clients := closedLoop(s.clients(), cfg.window, func(i int64) outcome { return search(i, nil, nil) })
		applied := applyPhase(ctx, e, s, cfg.seed, nil)
		endToEnd(cfg.log, rep, s, clients, applied, setupS, heapMB)
		return recheck(ctx, rep, e, s, queries, verified)
	}

	// Traced: a quarter of the window untraced, then the rest traced from
	// the start of the same stream, so the two see the same first
	// operations and trace.overhead compares like with like.
	var mu sync.Mutex
	untraced, tracedLat := map[int64]float64{}, map[int64]float64{}
	plain := closedLoop(s.clients(), cfg.window/4, func(i int64) outcome {
		o := search(i, nil, nil)
		mu.Lock()
		untraced[i] = ms(o.latency)
		mu.Unlock()
		return o
	})
	tr := newTracer()
	comp, err := builders(tr, s.relational())
	if err != nil {
		return err
	}
	d, err := newDecomposer(s, e, comp, tr)
	if err != nil {
		return err
	}
	gc0 := gcCycles()
	traced := closedLoop(s.clients(), cfg.window-cfg.window/4, func(i int64) outcome {
		o := search(i, tr, d)
		mu.Lock()
		tracedLat[i] = ms(o.latency)
		mu.Unlock()
		return o
	})
	gc := gcCycles() - gc0
	applied := applyPhase(ctx, e, s, cfg.seed, tr)
	var all tally
	for _, c := range append(plain, traced...) {
		all.merge(c)
	}
	all.merge(applied)
	rep.count(all)
	tracedOps := 0
	for _, c := range traced {
		tracedOps += c.attempted()
	}
	perLayer(rep, tr, d.counts, tracedOps, gc, overheadOf(tracedLat, untraced))
	if err := tr.write(traceFile(s, cfg.seed)); err != nil {
		return err
	}
	return recheck(ctx, rep, e, s, queries, verified)
}

// applyPhase applies insert+delete batches in memory, one at a time, for
// as long as the constants above say, and tallies their latencies.
func applyPhase(ctx context.Context, e *kws.Engine, s spec, seed int64, tr *tracer) tally {
	var t tally
	runtime.GC()
	start := time.Now()
	for n := 1; n <= minApplies || (n <= maxApplies && time.Since(start) < applyBudget); n++ {
		m := s.churn(seed, n)
		id := tr.begin("kws.apply", -2, 0)
		begin := time.Now()
		_, err := e.Apply(ctx, m)
		t.add(outcome{latency: time.Since(begin), failed: err != nil})
		tr.end(id)
	}
	return t
}

// recheck searches the verification list again after the run's mutations
// and requires the same output: every batch inserted and deleted the same
// row.
func recheck(ctx context.Context, rep *report, e *kws.Engine, s spec, queries [][]string, verified []string) error {
	again, err := verifyList(ctx, e, s, queries)
	if err != nil {
		return err
	}
	rep.Attempted += len(again)
	for i := range again {
		if again[i] != verified[i] {
			rep.Correct = false
			rep.Failed++
		}
	}
	return nil
}

// overheadOf compares traced and untraced latencies of the same operation
// indices: the median traced latency over the median untraced one, minus
// one.
func overheadOf(traced, untraced map[int64]float64) float64 {
	var a, b []float64
	for i, t := range traced {
		if u, ok := untraced[i]; ok {
			a = append(a, t)
			b = append(b, u)
		}
	}
	if len(a) == 0 {
		return 0
	}
	return median(a)/median(b) - 1
}
