package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/workload"
	"repro/kws"
)

// spec is one benchmark workload: a generated dataset, the options every
// search of it carries, and how its operation stream is drawn.
type spec struct {
	Name    string
	Dataset string // "logs", "company" or "docs"
	Scale   int
	// MaxJoins and TopK are the per-query options; TopK 0 returns every
	// result.
	MaxJoins int
	TopK     int
	// Serve sends a Zipf-skewed stream with churn batches over HTTP to an
	// httpapi server fronting a durable engine; otherwise the clients call
	// Engine.Search in process over seeded passes of the pool.
	Serve bool
	// Clients is the number of closed-loop clients.
	Clients int
	// Tail is the latency quantile reported as search_tail_ms: the highest
	// of p80, p90, p95, p99 and p99.9 that keeps at least ten searches
	// beyond it in a 30-second run on a 2-core machine.
	Tail float64
	// Pool is the number of distinct queries a run draws from (0: every
	// generated one). Verify is the length of the verification list: the
	// first Verify queries of the pool, whose digests golden.json pins.
	Pool   int
	Verify int
	// Reason is why the workload is in the benchmark.
	Reason string
}

// specs are the workloads, in BENCHMARK.json order.
var specs = []spec{
	{
		Name: "logs-corroborate", Dataset: "logs", Scale: 1, MaxJoins: 4, TopK: 10, Clients: 1,
		Tail: 0.80, Pool: 32, Verify: 4,
		Reason: "instance corroboration is ~92% of query time",
	},
	{
		Name: "company-enumerate", Dataset: "company", Scale: 64, MaxJoins: 5, Clients: 2,
		Tail: 0.95, Pool: 64, Verify: 8,
		Reason: "enumeration and dedup dominate; the control for corroboration",
	},
	{
		Name: "serve-churn", Dataset: "docs", Scale: 2, MaxJoins: 3, TopK: 10,
		Serve: true, Clients: 2, Tail: 0.999, Verify: 8,
		Reason: "writes beside reads",
	},
}

// churnEvery makes every n-th operation of the serve stream an
// insert+delete batch.
const churnEvery = 10

func lookup(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// record is the workload's line in BENCHMARK.json: the dataset, the query
// stream and options, the client count and the tail quantile it runs,
// and why.
func (s spec) record() string {
	gen := map[string]string{"logs": "SyntheticLogs", "company": "SyntheticCompany", "docs": "SyntheticDocs"}[s.Dataset]
	queries := map[string]string{"logs": "LogQueries", "company": "Queries", "docs": "DocQueries"}[s.Dataset]
	stream := fmt.Sprintf("%s pool %d", queries, s.Pool)
	path := "uncached Engine.Search"
	if s.Serve {
		stream = "Zipf " + queries
		path = fmt.Sprintf("httpapi + FileStore (fsync per ack), 1 op in %d insert+delete", churnEvery)
	}
	topK := strconv.Itoa(s.TopK)
	if s.TopK == 0 {
		topK = "all"
	}
	return fmt.Sprintf("%s(%d) x %s, %s, MaxJoins %d, TopK %s, clients %d, tail p%g: %s",
		gen, s.Scale, stream, path, s.MaxJoins, topK, s.Clients, s.Tail*100, s.Reason)
}

// clients is the closed-loop client count: s.Clients, at most one per CPU.
func (s spec) clients() int { return max(1, min(s.Clients, runtime.NumCPU())) }

// dataSeed generates every workload's dataset. The run's seed draws the
// operation stream only: at these scales the generator's seed alone moves
// the median search latency by about 10% (see README.md), more than a
// regression bound can absorb.
const dataSeed = 1

// database generates the workload's dataset.
func (s spec) database() *kws.Database {
	seed := int64(dataSeed)
	switch s.Dataset {
	case "logs":
		return kws.SyntheticLogs(s.Scale, seed)
	case "company":
		return kws.SyntheticCompany(s.Scale, seed)
	default:
		return kws.SyntheticDocs(s.Scale, seed)
	}
}

// relational generates the same dataset as database, as the relational
// value the set-up builders take.
func (s spec) relational() *relation.Database {
	seed := int64(dataSeed)
	switch s.Dataset {
	case "logs":
		return workload.MustGenerateLogs(workload.ScaledLogsConfig(s.Scale, seed))
	case "company":
		return workload.MustGenerate(workload.ScaledConfig(s.Scale, seed))
	default:
		return workload.MustGenerateDocs(workload.ScaledDocsConfig(s.Scale, seed))
	}
}

// candidates are the generated queries the pool is drawn from.
func (s spec) candidates() [][]string {
	var qs []workload.Query
	switch s.Dataset {
	case "logs":
		qs = workload.LogQueries(4096, dataSeed)
	case "company":
		qs = workload.Queries(4096, dataSeed)
	default:
		qs = workload.DocQueries(256, dataSeed)
	}
	out := make([][]string, len(qs))
	for i, q := range qs {
		out[i] = q.Keywords
	}
	return out
}

// query is the search a stream operation issues.
func (s spec) query(keywords []string) kws.Query {
	return kws.Query{Keywords: keywords, MaxJoins: s.MaxJoins, TopK: s.TopK}
}

// churn is the n-th insert+delete batch: it inserts one row and deletes it
// again in the same batch, so each batch publishes a generation (and
// invalidates the result cache) while leaving the data, and therefore every
// search's output, unchanged.
func (s spec) churn(seed int64, n int) kws.Mutation {
	key := fmt.Sprintf("perfbench-%d-%d", seed, n)
	var table, col string
	var row map[string]any
	switch s.Dataset {
	case "logs":
		table, col = "LOG_EVENT", "ID"
		row = map[string]any{"ID": key, "SERVICE_ID": "s1", "HOST_ID": "h1",
			"TS": "2026-01-01T00:00:00Z", "SEVERITY": "info", "MESSAGE": "perfbench churn " + key}
	case "company":
		table, col = "EMPLOYEE", "SSN"
		row = map[string]any{"SSN": key, "L_NAME": "Bench", "S_NAME": "Load", "D_ID": "d1"}
	default:
		table, col = "DOCUMENT", "ID"
		row = map[string]any{"ID": key, "COLLECTION_ID": "c1", "TITLE": "perfbench churn", "SUMMARY": "perfbench churn " + key}
	}
	return kws.Mutation{Ops: []kws.Op{kws.Insert(table, row), kws.Delete(table, map[string]any{col: key})}}
}

// op is one operation of a stream: a search of the pool's query Query,
// or, when Churn > 0, the Churn-th insert+delete batch.
type op struct {
	Query int
	Churn int
}

// streamLen is the length of a stream; runs longer than that cycle.
const streamLen = 1 << 16

// pool is the workload's fixed query set: the first s.Pool distinct
// generated queries whose keywords all match a tuple (the engine rejects a
// keyword that matches nothing, and no operation of the benchmark is meant
// to fail), or all of them when s.Pool is 0.
func (s spec) pool(matches func(keyword string) bool) ([][]string, error) {
	var pool [][]string
	seen := map[string]bool{}
	for _, kw := range s.candidates() {
		key := strings.Join(kw, "\x00")
		if seen[key] {
			continue
		}
		ok := true
		for _, k := range kw {
			ok = ok && matches(k)
		}
		if !ok {
			continue
		}
		seen[key] = true
		pool = append(pool, kw)
		if len(pool) == s.Pool {
			break
		}
	}
	if len(pool) < max(s.Pool, s.Verify) {
		return nil, fmt.Errorf("%s: %d matching queries, need %d", s.Name, len(pool), max(s.Pool, s.Verify))
	}
	return pool, nil
}

// stream draws the seeded operation stream over a pool of n queries. The
// in-process workloads take the pool in passes, each pass a fresh seeded
// permutation, so every run covers the same queries as evenly as its
// length allows. The serve workload draws each search with popularity
// falling with pool position and makes every churnEvery-th operation a
// churn batch.
func (s spec) stream(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, streamLen)
	if !s.Serve {
		for len(ops) < streamLen {
			for _, i := range rng.Perm(n) {
				ops = append(ops, op{Query: i})
			}
		}
		return ops[:streamLen]
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	churn := 0
	for i := 0; i < streamLen; i++ {
		if (i+1)%churnEvery == 0 {
			churn++
			ops = append(ops, op{Churn: churn})
			continue
		}
		ops = append(ops, op{Query: int(zipf.Uint64())})
	}
	return ops
}
