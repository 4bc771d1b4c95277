package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/kws"
)

// ErrShed marks an operation the server refused under admission control
// (HTTP 429). The runner accounts sheds separately from errors: shedding
// under overload is the server working as designed.
var ErrShed = errors.New("bench: request shed by server")

// TargetStats is the target-side state a run records before and after its
// measured phase: cache effectiveness and generation churn.
type TargetStats struct {
	Generation     uint64
	CacheHits      int64
	CacheMisses    int64
	CacheHitRate   float64
	CacheEntries   int
	CacheBytes     int64
	CacheEvictions int64
	ServerShed     int64
}

// Target abstracts where the load goes. Implementations must be safe for
// concurrent use by many workers.
type Target interface {
	// Kind labels the target in reports ("inproc" or "remote").
	Kind() string
	// Search runs one cached single search.
	Search(ctx context.Context, q kws.Query) error
	// SearchBatch runs one batch of searches; any per-query failure fails
	// the operation.
	SearchBatch(ctx context.Context, qs []kws.Query) error
	// Stream consumes one streamed search to exhaustion.
	Stream(ctx context.Context, q kws.Query) error
	// Mutate applies one wire-form op batch atomically.
	Mutate(ctx context.Context, ops []httpapi.Op) error
	// Stats snapshots the target-side counters.
	Stats(ctx context.Context) (TargetStats, error)
	// Close releases the target's resources.
	Close() error
}

// EngineTarget drives an in-process kws.Engine through a kws.Cache — the
// same read path kwsd serves, minus HTTP.
type EngineTarget struct {
	engine *kws.Engine
	cache  *kws.Cache
}

// NewEngineTarget builds the scenario's dataset and wraps it in an engine
// and result cache.
func NewEngineTarget(sc Scenario) (*EngineTarget, error) {
	if sc.Open == nil {
		return nil, fmt.Errorf("bench: scenario %q has no dataset builder", sc.Name)
	}
	db, labeler, err := sc.Open()
	if err != nil {
		return nil, fmt.Errorf("bench: open %q dataset: %w", sc.Name, err)
	}
	var opts []kws.Option
	if labeler != nil {
		opts = append(opts, kws.WithLabeler(labeler))
	}
	engine, err := kws.New(db, opts...)
	if err != nil {
		return nil, fmt.Errorf("bench: build %q engine: %w", sc.Name, err)
	}
	return &EngineTarget{
		engine: engine,
		cache:  kws.NewCache(engine, kws.CacheOptions{}),
	}, nil
}

// Engine exposes the underlying engine (used by tests).
func (t *EngineTarget) Engine() *kws.Engine { return t.engine }

// Kind implements Target.
func (t *EngineTarget) Kind() string { return "inproc" }

// Search implements Target through the result cache.
func (t *EngineTarget) Search(ctx context.Context, q kws.Query) error {
	_, _, err := t.cache.SearchInfo(ctx, q)
	return err
}

// SearchBatch implements Target through Engine.SearchBatch.
func (t *EngineTarget) SearchBatch(ctx context.Context, qs []kws.Query) error {
	for _, r := range t.engine.SearchBatch(ctx, qs) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Stream implements Target, consuming the stream to exhaustion.
func (t *EngineTarget) Stream(ctx context.Context, q kws.Query) error {
	return t.engine.Stream(ctx, q, func(kws.Result) bool { return true })
}

// Mutate implements Target through Engine.Apply.
func (t *EngineTarget) Mutate(ctx context.Context, ops []httpapi.Op) error {
	converted := make([]kws.Op, len(ops))
	for i, o := range ops {
		op, err := o.ToOp()
		if err != nil {
			return err
		}
		converted[i] = op
	}
	_, err := t.engine.Apply(ctx, kws.Mutation{Ops: converted})
	return err
}

// Stats implements Target from the cache counters and the engine
// generation.
func (t *EngineTarget) Stats(context.Context) (TargetStats, error) {
	cs := t.cache.Stats()
	return TargetStats{
		Generation:     t.engine.Generation(),
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheHitRate:   cs.HitRate(),
		CacheEntries:   cs.Entries,
		CacheBytes:     cs.Bytes,
		CacheEvictions: cs.Evictions,
	}, nil
}

// Close implements Target; an in-process engine has nothing to release.
func (t *EngineTarget) Close() error { return nil }

// RemoteTarget drives a kwsd server over the /v1 wire format. It must point
// at a server booted with the scenario's matching -db flag (see
// Scenario.ServerDB); the harness measures whatever the server serves.
type RemoteTarget struct {
	base   string
	client *http.Client
}

// NewRemoteTarget builds a target for a kwsd base URL like
// "http://localhost:8080".
func NewRemoteTarget(baseURL string) *RemoteTarget {
	return &RemoteTarget{
		base: strings.TrimSuffix(baseURL, "/"),
		client: &http.Client{
			// The server owns per-request budgets (-timeout → 504); the
			// client cap only guards against a hung transport.
			Timeout: 60 * time.Second,
		},
	}
}

// Kind implements Target.
func (t *RemoteTarget) Kind() string { return "remote" }

// post sends one JSON body and decodes the response into out (when out is
// non-nil), mapping 429 onto ErrShed.
func (t *RemoteTarget) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return ErrShed
	}
	if resp.StatusCode != http.StatusOK {
		var er httpapi.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return fmt.Errorf("bench: remote %s: %s", resp.Status, er.Error)
		}
		return fmt.Errorf("bench: remote %s", resp.Status)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Search implements Target over POST /v1/search.
func (t *RemoteTarget) Search(ctx context.Context, q kws.Query) error {
	wire := httpapi.FromQuery(q)
	var resp httpapi.SearchResponse
	return t.post(ctx, "/v1/search", httpapi.SearchRequest{Query: &wire}, &resp)
}

// SearchBatch implements Target over the batch form of POST /v1/search.
func (t *RemoteTarget) SearchBatch(ctx context.Context, qs []kws.Query) error {
	wire := make([]httpapi.QueryRequest, len(qs))
	for i, q := range qs {
		wire[i] = httpapi.FromQuery(q)
	}
	var items []httpapi.BatchItem
	if err := t.post(ctx, "/v1/search", httpapi.SearchRequest{Queries: wire}, &items); err != nil {
		return err
	}
	for _, item := range items {
		if item.Error != "" {
			return fmt.Errorf("bench: remote batch item: %s", item.Error)
		}
	}
	return nil
}

// Stream implements Target over the NDJSON streaming form of
// POST /v1/search, consuming every line.
func (t *RemoteTarget) Stream(ctx context.Context, q kws.Query) error {
	wire := httpapi.FromQuery(q)
	buf, err := json.Marshal(httpapi.SearchRequest{Query: &wire, Stream: true})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v1/search", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return ErrShed
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: remote %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var item httpapi.StreamItem
		if err := dec.Decode(&item); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("bench: bad stream line: %w", err)
		}
		if item.Error != "" {
			return fmt.Errorf("bench: remote stream: %s", item.Error)
		}
	}
}

// Mutate implements Target over POST /v1/mutate.
func (t *RemoteTarget) Mutate(ctx context.Context, ops []httpapi.Op) error {
	var resp httpapi.MutateResponse
	return t.post(ctx, "/v1/mutate", httpapi.MutateRequest{Ops: ops}, &resp)
}

// Stats implements Target from GET /v1/stats.
func (t *RemoteTarget) Stats(ctx context.Context) (TargetStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/stats", nil)
	if err != nil {
		return TargetStats{}, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return TargetStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return TargetStats{}, fmt.Errorf("bench: remote stats %s", resp.Status)
	}
	var stats httpapi.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return TargetStats{}, err
	}
	return TargetStats{
		Generation:     stats.Generation,
		CacheHits:      stats.Cache.Hits,
		CacheMisses:    stats.Cache.Misses,
		CacheHitRate:   stats.Cache.HitRate,
		CacheEntries:   stats.Cache.Entries,
		CacheBytes:     stats.Cache.Bytes,
		CacheEvictions: stats.Cache.Evictions,
		ServerShed:     stats.Server.Shed,
	}, nil
}

// Close implements Target.
func (t *RemoteTarget) Close() error {
	t.client.CloseIdleConnections()
	return nil
}
