package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/store"
)

func TestBuildEngine(t *testing.T) {
	e, err := buildEngine("paper", 1, 1, 1)
	if err != nil {
		t.Fatalf("paper: %v", err)
	}
	if rels, tuples, _ := e.Stats(); rels == 0 || tuples == 0 {
		t.Errorf("paper engine empty: %d relations, %d tuples", rels, tuples)
	}
	for _, db := range []string{"synthetic", "logs", "docs"} {
		e, err := buildEngine(db, 1, 7, 1)
		if err != nil {
			t.Errorf("%s: %v", db, err)
			continue
		}
		if _, tuples, _ := e.Stats(); tuples == 0 {
			t.Errorf("%s engine empty", db)
		}
	}
	if _, err := buildEngine("bogus", 1, 1, 1); err == nil {
		t.Error("unknown database should fail")
	}
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port,
// exercises the search/mutate/stats cycle over HTTP, and checks that
// cancelling the context drains it.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", "paper", 1, 1, 1, "", 0, httpapi.Options{}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	search := func() httpapi.SearchResponse {
		body, _ := json.Marshal(httpapi.SearchRequest{Query: &httpapi.QueryRequest{
			Keywords: []string{"Smith", "XML"}, MaxJoins: 3,
		}})
		resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d", resp.StatusCode)
		}
		var sr httpapi.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	if first := search(); first.Cached || len(first.Results) == 0 {
		t.Errorf("first search = cached %v, %d results", first.Cached, len(first.Results))
	}
	if second := search(); !second.Cached {
		t.Error("second search not served from cache")
	}

	mutateBody, _ := json.Marshal(httpapi.MutateRequest{Ops: []httpapi.Op{{
		Op: "delete", Table: "DEPENDENT", Key: map[string]any{"ID": "t2"},
	}}})
	resp, err := http.Post(base+"/v1/mutate", "application/json", bytes.NewReader(mutateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d", resp.StatusCode)
	}
	if after := search(); after.Generation != 1 || after.Cached {
		t.Errorf("post-mutation search = generation %d cached %v, want 1 and false", after.Generation, after.Cached)
	}

	statsResp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats httpapi.StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Cache.HitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", stats.Cache.HitRate)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestRunPersistsAcrossRestart boots a durable server, mutates it, shuts it
// down, boots a second server over the same data directory and checks the
// mutation survived: same generation, same search output, and a stats
// persistence block describing the recovery.
func TestRunPersistsAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	boot := func() (base string, shutdown func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, "127.0.0.1:0", "paper", 1, 1, 1, dataDir, 0, httpapi.Options{}, ready)
		}()
		select {
		case addr := <-ready:
			base = "http://" + addr
		case err := <-done:
			t.Fatalf("run exited before listening: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("server never became ready")
		}
		return base, func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run returned %v on shutdown", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("server did not shut down")
			}
		}
	}
	search := func(base string) httpapi.SearchResponse {
		t.Helper()
		body, _ := json.Marshal(httpapi.SearchRequest{Query: &httpapi.QueryRequest{
			Keywords: []string{"Smith", "XML"}, MaxJoins: 3,
		}})
		resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr httpapi.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	base, shutdown := boot()
	mutateBody, _ := json.Marshal(httpapi.MutateRequest{Ops: []httpapi.Op{{
		Op: "delete", Table: "DEPENDENT", Key: map[string]any{"ID": "t2"},
	}}})
	resp, err := http.Post(base+"/v1/mutate", "application/json", bytes.NewReader(mutateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d", resp.StatusCode)
	}
	before := search(base)
	if before.Generation != 1 {
		t.Fatalf("generation before restart = %d, want 1", before.Generation)
	}
	shutdown()

	base2, shutdown2 := boot()
	defer shutdown2()
	after := search(base2)
	if after.Generation != 1 {
		t.Fatalf("generation after restart = %d, want 1", after.Generation)
	}
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatalf("search results changed across restart:\nbefore: %+v\nafter:  %+v", before.Results, after.Results)
	}
	// The graceful shutdown checkpointed, so recovery loaded a snapshot and
	// replayed nothing.
	statsResp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats httpapi.StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Persistence == nil {
		t.Fatal("durable server omitted the persistence block")
	}
	if stats.Persistence.LastSnapshotGeneration != 1 || stats.Persistence.ReplayedRecords != 0 {
		t.Fatalf("persistence after restart = %+v, want snapshot gen 1 and 0 replayed", stats.Persistence)
	}
}

// TestRunRefusesShardedDataDir checks that a data directory written by the
// removed -shards mode fails the boot with an error naming the layout,
// instead of booting an empty store beside it and serving the seed.
func TestRunRefusesShardedDataDir(t *testing.T) {
	dataDir := t.TempDir()
	for _, rel := range []string{"meta/vector.log", "shard-0/wal.log", "shard-1/wal.log"} {
		p := filepath.Join(dataDir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("acknowledged records"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", "paper", 1, 1, 1, dataDir, 0, httpapi.Options{}, ready)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, store.ErrShardedLayout) {
			t.Fatalf("run = %v, want ErrShardedLayout", err)
		}
	case addr := <-ready:
		cancel()
		<-done
		t.Fatalf("server listened on %s over a sharded data dir", addr)
	case <-time.After(30 * time.Second):
		t.Fatal("run neither failed nor listened")
	}
	if _, err := os.Stat(filepath.Join(dataDir, "wal.log")); !os.IsNotExist(err) {
		t.Fatalf("boot created wal.log beside the sharded layout (stat: %v)", err)
	}
}
