package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/kws"
)

// server is the kwsd serving path, assembled the way cmd/kwsd assembles
// it: a FileStore with its defaults (fsync per ack, a snapshot every 64
// generations), an engine recovered from it, and an httpapi.Server on a
// loopback listener.
type server struct {
	engine *kws.Engine
	api    *httpapi.Server
	store  kws.Store
	timed  *timedStore // nil when untraced
	http   *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer(db *kws.Database, dir string, tr *tracer) (*server, error) {
	fs, err := kws.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	sv := &server{store: fs}
	if tr != nil {
		sv.timed = &timedStore{Store: fs, tr: tr}
		sv.store = sv.timed
	}
	sv.engine, err = kws.New(db, kws.WithStore(sv.store))
	if err != nil {
		fs.Close()
		return nil, err
	}
	sv.api = httpapi.New(sv.engine, httpapi.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Close()
		return nil, err
	}
	handler := sv.api.Handler()
	if tr != nil {
		handler = traceHandler(handler, tr)
	}
	sv.http = &http.Server{Handler: handler}
	sv.served = make(chan error, 1)
	go func() { sv.served <- sv.http.Serve(ln) }()
	sv.url = "http://" + ln.Addr().String()
	sv.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	return sv, nil
}

// close stops the listener, waits for the serving goroutine and closes the
// store.
func (sv *server) close() error {
	err := sv.http.Shutdown(context.Background())
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	sv.client.CloseIdleConnections()
	return errors.Join(err, sv.store.Close())
}

// post sends a JSON request and returns the response body; any status but
// 200 is an error.
func (sv *server) post(path string, body any, op int64) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, sv.url+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (sv *server) stats() (httpapi.StatsResponse, error) {
	var st httpapi.StatsResponse
	resp, err := sv.client.Get(sv.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// opHeader carries the benchmark's operation index to the traced handler.
const opHeader = "X-Perfbench-Op"

// traceHandler records one span around the httpapi handler for each
// request that carries an operation index.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("httpapi.handler", op, 0)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// timedStore times the engine's store from outside, through kws.WithStore.
// It overrides only Append and Snapshot; the rest of kws.Store passes
// through. The engine calls both from inside Apply, which the benchmark
// serializes, so parent and op name the Apply in progress. Calls outside
// a traced Apply (parent 0) pass through untimed.
type timedStore struct {
	kws.Store
	tr       *tracer
	parent   int
	op       int64
	walBytes []float64
}

func (s *timedStore) Append(gen uint64, m store.Mutation) error {
	if s.parent == 0 {
		return s.Store.Append(gen, m)
	}
	before := s.Store.Stats().WALBytes
	id := s.tr.begin("store.append", s.op, s.parent)
	err := s.Store.Append(gen, m)
	s.tr.end(id)
	s.walBytes = append(s.walBytes, float64(s.Store.Stats().WALBytes-before))
	return err
}

func (s *timedStore) Snapshot(gen uint64, db *relation.Database) error {
	if s.parent == 0 {
		return s.Store.Snapshot(gen, db)
	}
	id := s.tr.begin("store.snapshot", s.op, s.parent)
	err := s.Store.Snapshot(gen, db)
	s.tr.end(id)
	return err
}

// searchReply is the part of a /v1/search response the benchmark checks.
type searchReply struct {
	Generation uint64          `json:"generation"`
	Cached     bool            `json:"cached"`
	Results    json.RawMessage `json:"results"`
}

// wireDigest fingerprints the results array of a response in compact form.
func wireDigest(results []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, results); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return string(sum[:]), nil
}

// runServe runs serve-churn: closed-loop clients sending Zipf-skewed
// searches and insert+delete batches to a durable kwsd-style server.
func runServe(cfg config, rep *report) error {
	s := cfg.spec
	ctx := context.Background()
	db := s.database()
	n := 0
	setupS, err := medianSetup(func() (time.Duration, error) {
		n++
		begin := time.Now()
		sv, err := startServer(db, filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", n)), nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(begin)
		return d, sv.close()
	})
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	dataDir := filepath.Join(cfg.workDir, "data")
	sv, err := startServer(db, dataDir, tr)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sv.close()
		}
	}()
	e := sv.engine
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

	out := newExpected(nil)
	var lastAcked atomic.Uint64
	var applyMu sync.Mutex
	var d *decomposer
	if cfg.trace {
		comp, err := builders(tr, s.relational())
		if err != nil {
			return err
		}
		if d, err = newDecomposer(s, e, comp, tr); err != nil {
			return err
		}
	}
	var hitMS, missMS []float64
	var cacheMu sync.Mutex

	// wire sends operation i over HTTP, as a kwsd client would; a
	// non-negative tag marks the request for the traced handler.
	wire := func(tag int64, o op) outcome {
		if o.Churn > 0 {
			m := s.churn(cfg.seed, o.Churn)
			req := httpapi.MutateRequest{}
			for _, op := range m.Ops {
				req.Ops = append(req.Ops, httpapi.Op{Op: op.Kind.String(), Table: op.Table, Key: op.Key, Row: op.Row})
			}
			begin := time.Now()
			body, err := sv.post("/v1/mutate", req, tag)
			res := outcome{latency: time.Since(begin), failed: err != nil}
			var mr httpapi.MutateResponse
			if err == nil && json.Unmarshal(body, &mr) == nil {
				casMax(&lastAcked, mr.Generation)
			} else {
				res.failed = true
			}
			return res
		}
		q := httpapi.FromQuery(s.query(queries[o.Query]))
		begin := time.Now()
		body, err := sv.post("/v1/search", httpapi.SearchRequest{Query: &q}, tag)
		res := outcome{search: true, query: o.Query, latency: time.Since(begin), failed: err != nil}
		var reply searchReply
		if err == nil && json.Unmarshal(body, &reply) == nil {
			dg, err := wireDigest(reply.Results)
			res.failed = err != nil
			res.wrong = err == nil && !out.check(o.Query, dg)
		} else {
			res.failed = true
		}
		return res
	}

	// direct runs operation i through the same layers the handler calls —
	// the server's cache, the wire conversion and encoding, Engine.Apply —
	// so each can be timed on its own, then decomposes the search.
	direct := func(i int64, o op) outcome {
		if o.Churn > 0 {
			applyMu.Lock()
			defer applyMu.Unlock()
			id := tr.begin("kws.apply", i, 0)
			sv.timed.parent, sv.timed.op = id, i
			begin := time.Now()
			gen, err := e.Apply(ctx, s.churn(cfg.seed, o.Churn))
			res := outcome{latency: time.Since(begin), failed: err != nil}
			tr.end(id)
			if err == nil {
				casMax(&lastAcked, gen)
			}
			return res
		}
		kw := queries[o.Query]
		begin := time.Now()
		results, info, err := sv.api.Cache().SearchInfo(ctx, s.query(kw))
		lat := time.Since(begin)
		hit := info.Hit || info.Collapsed
		cacheMu.Lock()
		if hit {
			hitMS = append(hitMS, ms(lat))
		} else {
			missMS = append(missMS, ms(lat))
		}
		cacheMu.Unlock()
		var body []byte
		tr.timed("httpapi.encode", i, 0, func() {
			body, _ = json.Marshal(httpapi.SearchResponse{Generation: info.Generation, Cached: hit, Results: httpapi.FromResults(results)})
		})
		res := outcome{search: true, query: o.Query, latency: lat, failed: err != nil}
		var reply searchReply
		if err == nil && json.Unmarshal(body, &reply) == nil {
			dg, err := wireDigest(reply.Results)
			res.failed = err != nil
			res.wrong = err == nil && !out.check(o.Query, dg)
		} else {
			res.failed = true
		}
		if d.run(ctx, kw, i, 0, true) != nil {
			res.failed = true
		}
		return res
	}

	// Warm the connections, the searcher and the cache with the
	// verification list before measuring.
	for i := range s.Verify {
		if o := wire(-1, op{Query: i}); o.failed {
			return fmt.Errorf("warm-up search %d failed", i)
		}
	}
	cache0 := sv.api.Cache().Stats()

	var clientTallies []tally
	var overheadRatio float64
	var gc uint32
	var tracedOps int
	if !cfg.trace {
		clientTallies = closedLoop(s.clients(), cfg.window, func(i int64) outcome { return wire(-1, ops[i%int64(len(ops))]) })
	} else {
		// A quarter of the window untraced over the wire, then the rest
		// traced from the start of the same stream: even operations over
		// the wire, odd ones direct. trace.overhead compares the wire
		// searches of the same indices.
		var mu sync.Mutex
		untraced, traced := map[int64]float64{}, map[int64]float64{}
		plain := closedLoop(s.clients(), cfg.window/4, func(i int64) outcome {
			o := wire(-1, ops[i%int64(len(ops))])
			if o.search {
				mu.Lock()
				untraced[i] = ms(o.latency)
				mu.Unlock()
			}
			return o
		})
		stats0, err := sv.stats()
		if err != nil {
			return err
		}
		cache0 = sv.api.Cache().Stats()
		gc0 := gcCycles()
		tracedTallies := closedLoop(s.clients(), cfg.window-cfg.window/4, func(i int64) outcome {
			o := ops[i%int64(len(ops))]
			if i%2 == 1 {
				return direct(i, o)
			}
			// Mutations always go direct, so Apply and the store are
			// timed on every batch.
			if o.Churn > 0 {
				return direct(i, o)
			}
			res := wire(i, o)
			mu.Lock()
			traced[i] = ms(res.latency)
			mu.Unlock()
			return res
		})
		gc = gcCycles() - gc0
		stats1, err := sv.stats()
		if err != nil {
			return err
		}
		for _, c := range tracedTallies {
			tracedOps += c.attempted()
		}
		clientTallies = append(plain, tracedTallies...)
		overheadRatio = overheadOf(traced, untraced)
		total, _ := tr.layerTimes()
		serveMS := (latencySum(stats1) - latencySum(stats0)) / float64(latencyCount(stats1)-latencyCount(stats0))
		rep.set("httpapi.wire_ms", "ms", mean(total["httpapi.handler"])-serveMS)
		rep.set("httpapi.encode_ms", "ms", mean(total["httpapi.encode"]))
		rep.set("kws.cache.hit_ms", "ms", mean(hitMS))
		rep.set("kws.cache.miss_ms", "ms", mean(missMS))
		rep.set("store.wal_bytes_per_apply", "bytes", mean(sv.timed.walBytes))
	}
	cache1 := sv.api.Cache().Stats()

	// Every reply was checked against the first reply to its query; that
	// one must match an uncached Engine.Search. The churn batches leave the
	// data unchanged, so every generation's output equals the current one.
	mismatched := 0
	for qi, want := range out.digests {
		res, err := e.Search(ctx, s.query(queries[qi]))
		if err != nil {
			return err
		}
		b, err := json.Marshal(httpapi.FromResults(res))
		if err != nil {
			return err
		}
		if got, err := wireDigest(b); err != nil || got != want {
			mismatched += out.ops[qi]
		}
	}
	acked := lastAcked.Load()
	if err := sv.close(); err != nil {
		return err
	}
	closed = true

	// Recovery: reopen the data directory; it must come back at the last
	// acked generation with unchanged output.
	begin := time.Now()
	fs, err := kws.OpenStore(dataDir)
	if err != nil {
		return err
	}
	defer fs.Close()
	re, err := kws.New(s.database(), kws.WithStore(fs))
	if err != nil {
		return err
	}
	recoverMS := ms(time.Since(begin))
	again, err := verifyList(ctx, re, s, queries)
	if err != nil {
		return err
	}
	rep.Attempted += len(again) + 1
	for i := range again {
		if again[i] != verified[i] {
			mismatched++
		}
	}
	if re.Generation() != acked {
		fmt.Fprintf(cfg.log, "recovered generation %d, last acked %d\n", re.Generation(), acked)
		mismatched++
	}
	if mismatched > 0 {
		rep.Correct = false
		rep.Failed += mismatched
	}

	if !cfg.trace {
		var applied tally
		endToEnd(cfg.log, rep, s, clientTallies, applied, setupS, heapMB)
		return nil
	}
	var all tally
	for _, c := range clientTallies {
		all.merge(c)
	}
	rep.count(all)
	hits := cache1.Hits + cache1.Collapses - cache0.Hits - cache0.Collapses
	lookups := hits + cache1.Misses - cache0.Misses
	if lookups > 0 {
		rep.set("kws.cache.hit_rate", "ratio", float64(hits)/float64(lookups))
	}
	rep.set("kws.cache.evictions", "count", float64(cache1.Evictions-cache0.Evictions))
	rep.set("store.recover_ms", "ms", recoverMS)
	perLayer(rep, tr, d.counts, tracedOps, gc, overheadRatio)
	return tr.write(traceFile(s, cfg.seed))
}

func casMax(v *atomic.Uint64, x uint64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// latencySum and latencyCount total the server's search latency
// histograms, in ms, across engine labels.
func latencySum(st httpapi.StatsResponse) float64 {
	sum := 0.0
	for _, q := range st.Latency {
		sum += q.MeanMS * float64(q.Count)
	}
	return sum
}

func latencyCount(st httpapi.StatsResponse) int64 {
	var n int64
	for _, q := range st.Latency {
		n += q.Count
	}
	return n
}
