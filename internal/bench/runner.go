package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/kws"
)

// Latency is a latency summary in microseconds.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// SuiteResult is one row of a report: the measured outcome of one suite in
// one mode against one target. Field names are the committed BENCH_*.json
// schema — renaming one breaks the cross-PR trajectory diff.
type SuiteResult struct {
	Suite  string `json:"suite"`
	Mode   string `json:"mode"`
	Target string `json:"target"`
	// Shards is decode-only history: the in-process engine's shard count
	// in rows of reports committed while kws-bench could sweep it (0 or 1
	// meant the plain engine). Nothing writes it any more.
	Shards int `json:"shards,omitempty"`
	// Ops counts measured operations; a batch operation carries
	// QueriesPerOp queries.
	Ops          int64 `json:"ops"`
	QueriesPerOp int   `json:"queries_per_op"`
	// Errors are failed operations; Shed are operations the server
	// refused under admission control (429); Dropped are open-loop
	// arrivals that found the worker pool saturated and were never sent.
	Errors  int64 `json:"errors"`
	Shed    int64 `json:"shed"`
	Dropped int64 `json:"dropped"`
	// DurationSeconds is the measured-phase wall time; QPS is Ops over it.
	DurationSeconds float64 `json:"duration_seconds"`
	QPS             float64 `json:"qps"`
	// LatencyUS summarises per-operation latency in microseconds. In
	// open-loop runs it includes queueing from arrival to completion.
	LatencyUS Latency `json:"latency_us"`
	// CacheHitRate is the hit rate over this run's cache lookups only
	// (delta-based, so back-to-back runs against one server don't bleed
	// into each other). The entry/byte/eviction gauges are end-of-run.
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheEntries   int     `json:"cache_entries"`
	CacheBytes     int64   `json:"cache_bytes"`
	CacheEvictions int64   `json:"cache_evictions"`
	// Generation is the target's generation after the run;
	// GenerationChurn is how many generations the run published.
	Generation      uint64 `json:"generation"`
	GenerationChurn uint64 `json:"generation_churn"`
	// Memory gauges sampled from the bench process at the end of the
	// measured phase (metrics.SampleMemStats). For in-process targets this
	// is the engine's heap; for remote targets it only reflects the load
	// generator. Zero in reports written before the fields existed.
	MemHeapBytes      int64   `json:"mem_heap_bytes"`
	MemHeapObjects    int64   `json:"mem_heap_objects"`
	MemGCPauseTotalMS float64 `json:"mem_gc_pause_total_ms"`
	MemNumGC          int64   `json:"mem_num_gc"`
}

// benchLatencyBounds are histogram bounds in seconds, finer than the
// serving-layer defaults at the fast end: cached in-process hits sit in the
// tens of microseconds.
func benchLatencyBounds() []float64 {
	return []float64{
		5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
		5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// workerState is one worker's private operation streams. Streams are seeded
// per worker, so a run is deterministic at any pool size: worker w always
// draws the same sequence.
type workerState struct {
	queries   func() kws.Query
	mutations func() []httpapi.Op
	opIndex   int
}

// runConfig is the resolved per-run state shared by all workers.
type runConfig struct {
	target  Target
	mode    Mode
	profile Profile

	hist    *metrics.Histogram
	ops     atomic.Int64
	errs    atomic.Int64
	shed    atomic.Int64
	dropped atomic.Int64
}

// nextOp executes one operation of the run's mode on the worker's streams.
func (r *runConfig) nextOp(ctx context.Context, w *workerState) error {
	w.opIndex++
	switch r.mode {
	case ModeMixed:
		if w.mutations != nil && r.profile.MutateEvery > 0 && w.opIndex%r.profile.MutateEvery == 0 {
			return r.target.Mutate(ctx, w.mutations())
		}
		return r.target.Search(ctx, w.queries())
	case ModeBatch:
		qs := make([]kws.Query, r.profile.BatchSize)
		for i := range qs {
			qs[i] = w.queries()
		}
		return r.target.SearchBatch(ctx, qs)
	case ModeStream:
		return r.target.Stream(ctx, w.queries())
	default: // ModeRead
		return r.target.Search(ctx, w.queries())
	}
}

// measure runs one operation, classifies its outcome and records latency
// from start (closed loop: service time; open loop passes the arrival time
// instead, so queueing counts).
func (r *runConfig) measure(ctx context.Context, w *workerState, start time.Time) {
	err := r.nextOp(ctx, w)
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return // the run is shutting down; not an outcome
	}
	r.ops.Add(1)
	r.hist.Observe(time.Since(start).Seconds())
	switch {
	case errors.Is(err, ErrShed):
		r.shed.Add(1)
	case err != nil:
		r.errs.Add(1)
	}
}

// workerSeed derives a worker's stream seed: distinct per worker, stable
// per profile seed.
func workerSeed(base int64, worker int) int64 { return base + int64(worker+1)*7919 }

// Run drives one scenario in one mode against the target and reduces the
// measured phase to a SuiteResult.
//
// Closed-loop runs (Profile.RatePerSec == 0) keep Workers operations in
// flight back to back. Open-loop runs dispatch arrivals at RatePerSec to a
// Workers-sized pool; arrivals that find every worker busy are dropped and
// counted, so an overloaded target degrades visibly instead of silently
// stretching the arrival process.
func Run(ctx context.Context, target Target, sc Scenario, mode Mode, p Profile) (SuiteResult, error) {
	if sc.Queries == nil {
		return SuiteResult{}, fmt.Errorf("bench: scenario %q has no query stream", sc.Name)
	}
	if mode == ModeMixed && sc.Mutations == nil {
		return SuiteResult{}, fmt.Errorf("bench: scenario %q is read-only, cannot run mixed mode", sc.Name)
	}
	if mode == ModeBatch && p.BatchSize < 1 {
		return SuiteResult{}, fmt.Errorf("bench: batch mode needs Profile.BatchSize >= 1")
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.MeasureOps <= 0 && p.Duration <= 0 {
		return SuiteResult{}, fmt.Errorf("bench: profile needs MeasureOps or Duration")
	}
	if mode == ModeMixed && p.MutateEvery < 1 {
		p.MutateEvery = 10
	}

	r := &runConfig{
		target:  target,
		mode:    mode,
		profile: p,
		hist:    metrics.NewHistogram(benchLatencyBounds()...),
	}
	workers := make([]*workerState, p.Workers)
	for w := range workers {
		ws := &workerState{queries: sc.Queries(workerSeed(p.Seed, w))}
		if sc.Mutations != nil {
			ws.mutations = sc.Mutations(workerSeed(p.Seed, w))
		}
		workers[w] = ws
	}

	// Warmup: every worker runs its first ops unmeasured, filling caches
	// and building searchers, so the measured phase starts steady-state.
	var wg sync.WaitGroup
	for _, ws := range workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			for i := 0; i < p.WarmupOps && ctx.Err() == nil; i++ {
				_ = r.nextOp(ctx, ws)
			}
		}(ws)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return SuiteResult{}, err
	}

	statsBefore, err := target.Stats(ctx)
	if err != nil {
		return SuiteResult{}, fmt.Errorf("bench: stats before run: %w", err)
	}

	runCtx := ctx
	var cancel context.CancelFunc
	if p.MeasureOps <= 0 {
		runCtx, cancel = context.WithTimeout(ctx, p.Duration)
		defer cancel()
	}
	begin := time.Now()
	if p.RatePerSec > 0 {
		r.runOpenLoop(runCtx, workers)
	} else {
		r.runClosedLoop(runCtx, workers)
	}
	elapsed := time.Since(begin)
	if err := ctx.Err(); err != nil {
		return SuiteResult{}, err // outer cancellation, not the phase deadline
	}

	statsAfter, err := target.Stats(ctx)
	if err != nil {
		return SuiteResult{}, fmt.Errorf("bench: stats after run: %w", err)
	}

	memReg := metrics.NewRegistry()
	metrics.SampleMemStats(memReg)
	mem := memReg.Snapshot().Gauges

	snap := r.hist.Snapshot()
	result := SuiteResult{
		Suite:           sc.Name,
		Mode:            string(mode),
		Target:          target.Kind(),
		Ops:             r.ops.Load(),
		QueriesPerOp:    1,
		Errors:          r.errs.Load(),
		Shed:            r.shed.Load(),
		Dropped:         r.dropped.Load(),
		DurationSeconds: elapsed.Seconds(),
		LatencyUS: Latency{
			Mean: snap.Mean * 1e6,
			P50:  snap.P50 * 1e6,
			P95:  snap.P95 * 1e6,
			P99:  snap.P99 * 1e6,
		},
		CacheHitRate:      deltaHitRate(statsBefore, statsAfter),
		CacheEntries:      statsAfter.CacheEntries,
		CacheBytes:        statsAfter.CacheBytes,
		CacheEvictions:    statsAfter.CacheEvictions,
		Generation:        statsAfter.Generation,
		GenerationChurn:   statsAfter.Generation - statsBefore.Generation,
		MemHeapBytes:      mem[metrics.GaugeHeapAllocBytes],
		MemHeapObjects:    mem[metrics.GaugeHeapObjects],
		MemGCPauseTotalMS: float64(mem[metrics.GaugeGCPauseTotalNs]) / 1e6,
		MemNumGC:          mem[metrics.GaugeNumGC],
	}
	if mode == ModeBatch {
		result.QueriesPerOp = p.BatchSize
	}
	if elapsed > 0 {
		result.QPS = float64(result.Ops) / elapsed.Seconds()
	}
	return result, nil
}

// runClosedLoop keeps every worker issuing operations back to back until
// the ticket budget or the phase deadline runs out.
func (r *runConfig) runClosedLoop(ctx context.Context, workers []*workerState) {
	var tickets atomic.Int64
	var wg sync.WaitGroup
	for _, ws := range workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			for ctx.Err() == nil {
				if r.profile.MeasureOps > 0 && tickets.Add(1) > int64(r.profile.MeasureOps) {
					return
				}
				r.measure(ctx, ws, time.Now())
			}
		}(ws)
	}
	wg.Wait()
}

// runOpenLoop dispatches arrivals at the profile rate to the worker pool.
// Arrival timestamps ride along, so recorded latency includes queueing.
func (r *runConfig) runOpenLoop(ctx context.Context, workers []*workerState) {
	arrivals := make(chan time.Time, len(workers))
	var wg sync.WaitGroup
	for _, ws := range workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			for arrival := range arrivals {
				r.measure(ctx, ws, arrival)
			}
		}(ws)
	}
	interval := time.Duration(float64(time.Second) / r.profile.RatePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	dispatched := 0
	for ctx.Err() == nil && (r.profile.MeasureOps <= 0 || dispatched < r.profile.MeasureOps) {
		select {
		case <-ctx.Done():
		case now := <-ticker.C:
			dispatched++
			select {
			case arrivals <- now:
			default:
				// Every worker is busy and the intake buffer is full: the
				// target cannot keep up with the arrival rate. Dropping —
				// instead of queueing unboundedly — keeps the arrival
				// process honest and the overload visible.
				r.dropped.Add(1)
			}
		}
	}
	close(arrivals)
	wg.Wait()
}

// deltaHitRate computes the cache hit rate over exactly this run's lookups.
func deltaHitRate(before, after TargetStats) float64 {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
