package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/kws"
)

// Set-up takes milliseconds here, so a run builds the same input many
// times and reports the median: at least minSetups builds, and more until
// setupBudget of build time or maxSetups builds.
const (
	minSetups   = 21
	maxSetups   = 201
	setupBudget = 1500 * time.Millisecond
	// setupRepeats is how often the traced run times each builder.
	setupRepeats = 21
)

// medianSetup times repeated builds, collecting garbage before each one so
// one build's leftovers are not charged to the next, and returns the
// median in seconds.
func medianSetup(build func() (time.Duration, error)) (float64, error) {
	var ds []float64
	var spent time.Duration
	for len(ds) < minSetups || (len(ds) < maxSetups && spent < setupBudget) {
		runtime.GC()
		d, err := build()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
		spent += d
	}
	return median(ds), nil
}

// builders times the set-up layers one by one on the relational form of
// the workload's dataset, as kws.New calls them, and returns the components
// of the last build for the decomposition's own searcher.
func builders(tr *tracer, rdb *relation.Database) (kws.Components, error) {
	if err := rdb.Validate(); err != nil {
		return kws.Components{}, err
	}
	var comp kws.Components
	for range setupRepeats {
		runtime.GC()
		var (
			tuples *symtab.Tuples
			err    error
		)
		comp.DB = rdb
		tr.timed("symtab.intern", -1, 0, func() { tuples = symtab.ForDatabase(rdb) })
		tr.timed("datagraph.build", -1, 0, func() { comp.Graph = datagraph.BuildParallelWith(rdb, tuples, 0) })
		tr.timed("index.build", -1, 0, func() { comp.Index = index.BuildParallelWith(rdb, tuples, 0) })
		tr.timed("core.derive", -1, 0, func() { comp.Analyzer, err = core.Derive(rdb) })
		if err != nil {
			return kws.Components{}, err
		}
	}
	return comp, nil
}

// decomposer splits one search into its layers through public toggles
// only: InstanceChecks off isolates enumeration from corroboration,
// Parallelism 1 isolates the annotation pipeline, Engine.Match times the
// index, and a searcher over separately built components yields the raw
// answers for the counts and for ranking.TopK.
type decomposer struct {
	spec     spec
	engine   *kws.Engine
	searcher kws.Searcher
	tr       *tracer
	mu       sync.Mutex // guards counts: the clients decompose concurrently
	counts   layerCounts
}

// layerCounts sums the work counts of the decomposed searches.
type layerCounts struct {
	searches, answers, loose, pairs, corroborated, matched int
}

func (c *layerCounts) add(o layerCounts) {
	c.searches += o.searches
	c.answers += o.answers
	c.loose += o.loose
	c.pairs += o.pairs
	c.corroborated += o.corroborated
	c.matched += o.matched
}

func newDecomposer(s spec, e *kws.Engine, comp kws.Components, tr *tracer) (*decomposer, error) {
	searcher, err := kws.NewSearcher(kws.EnginePaths, comp)
	if err != nil {
		return nil, err
	}
	return &decomposer{spec: s, engine: e, searcher: searcher, tr: tr}, nil
}

// run decomposes the search of keywords inside the parent span. withSearch
// also times the full uncached Engine.Search, for callers whose measured
// call is something else.
func (d *decomposer) run(ctx context.Context, keywords []string, op int64, parent int, withSearch bool) error {
	q := d.spec.query(keywords)
	var errs [4]error
	if withSearch {
		d.tr.timed("kws.search", op, parent, func() { _, errs[0] = d.engine.Search(ctx, q) })
	}
	off := q
	off.InstanceChecks = kws.ToggleOff
	d.tr.timed("paths.stream", op, parent, func() { _, errs[1] = d.engine.Search(ctx, off) })
	seq := q
	seq.Parallelism = 1
	d.tr.timed("paths.sequential", op, parent, func() { _, errs[2] = d.engine.Search(ctx, seq) })
	matched := 0
	for _, k := range keywords {
		d.tr.timed("index.match", op, parent, func() { matched += len(d.engine.Match(k)) })
	}
	resolved := kws.Query{Keywords: keywords, Engine: kws.EnginePaths, Ranking: kws.RankCloseFirst,
		MaxJoins: q.MaxJoins, TopK: q.TopK, InstanceChecks: kws.ToggleOn}
	var answers []kws.Answer
	d.tr.timed("paths.answers", op, parent, func() {
		errs[3] = d.searcher.Stream(ctx, resolved, func(a kws.Answer) bool {
			answers = append(answers, a)
			return true
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	items := make([]kws.RankItem, len(answers))
	for i, a := range answers {
		items[i] = kws.RankItem{Analysis: a.Analysis, Content: a.ContentScore}
	}
	k := q.TopK
	if k == 0 {
		k = -1
	}
	d.tr.timed("ranking.topk", op, parent, func() { ranking.TopK(items, ranking.CloseFirst{}, k) })

	pairs := map[[2]string]bool{}
	c := layerCounts{searches: 1, answers: len(answers), matched: matched}
	for _, a := range answers {
		if a.Analysis.Close {
			continue
		}
		c.loose++
		if a.Analysis.CorroboratedAtInstance {
			c.corroborated++
		}
		t := a.Connection.Tuples
		pairs[[2]string{t[0].String(), t[len(t)-1].String()}] = true
	}
	c.pairs = len(pairs)
	d.mu.Lock()
	d.counts.add(c)
	d.mu.Unlock()
	return nil
}

// perLayer fills the per-layer metrics every workload reports. Layers a
// workload does not exercise report 0: logs-corroborate and
// company-enumerate have no cache, HTTP server or store.
func perLayer(rep *report, tr *tracer, counts layerCounts, ops int, gcCycles uint32, overhead float64) {
	total, self := tr.layerTimes()
	avg := func(name string) float64 { return mean(total[name]) }
	perSearch := func(n int) float64 {
		if counts.searches == 0 {
			return 0
		}
		return float64(n) / float64(counts.searches)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.set("core.corroborate_ms", "ms", avg("kws.search")-avg("paths.stream"))
	rep.set("core.loose_answers", "count", perSearch(counts.loose))
	rep.set("core.endpoint_pairs", "count", perSearch(counts.pairs))
	rep.set("core.answers_per_endpoint_pair", "ratio", ratio(float64(counts.loose), float64(counts.pairs)))
	rep.set("core.corroborated_share", "ratio", ratio(float64(counts.corroborated), float64(counts.loose)))
	rep.set("paths.stream_ms", "ms", avg("paths.stream"))
	rep.set("paths.answers", "count", perSearch(counts.answers))
	rep.set("paths.pipeline_speedup", "ratio", ratio(avg("paths.sequential"), avg("kws.search")))
	rep.set("index.match_ms", "ms", avg("index.match"))
	rep.set("index.matched_tuples", "count", perSearch(counts.matched))
	rep.set("ranking.topk_ms", "ms", avg("ranking.topk"))
	rep.set("symtab.intern_ms", "ms", median(total["symtab.intern"]))
	rep.set("datagraph.build_ms", "ms", median(total["datagraph.build"]))
	rep.set("index.build_ms", "ms", median(total["index.build"]))
	rep.set("core.derive_ms", "ms", median(total["core.derive"]))
	rep.set("kws.apply_ms", "ms", avg("kws.apply"))
	rep.set("kws.stage_publish_ms", "ms", mean(self["kws.apply"]))
	// The tail of acked mutations is a per-layer metric: on serve-churn it
	// follows the shared disk's fsync latency, which moved it by 40-50% of
	// its median between runs. p95 stays below the one batch in 64 that
	// also writes a snapshot.
	rep.set("kws.apply_tail_ms", "ms", quantile(total["kws.apply"], 0.95))
	rep.set("store.append_ms", "ms", avg("store.append"))
	rep.set("store.snapshot_ms", "ms", avg("store.snapshot"))
	rep.set("store.snapshots", "count", float64(len(total["store.snapshot"])))
	rep.set("go.gc_cycles_per_op", "count", ratio(float64(gcCycles), float64(ops)))
	rep.set("trace.overhead", "ratio", overhead)
	for _, name := range []string{"kws.cache.hit_rate", "kws.cache.hit_ms", "kws.cache.miss_ms", "kws.cache.evictions",
		"httpapi.wire_ms", "httpapi.encode_ms", "store.wal_bytes_per_apply", "store.recover_ms"} {
		if _, ok := rep.Metrics[name]; !ok {
			rep.set(name, unitOf(name), 0)
		}
	}
}

func unitOf(name string) string {
	switch name {
	case "kws.cache.hit_rate":
		return "ratio"
	case "kws.cache.evictions":
		return "count"
	case "store.wal_bytes_per_apply":
		return "bytes"
	}
	return "ms"
}
