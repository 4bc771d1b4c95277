package kws

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/store"
)

// The durability property mirrors the rebuild-equivalence one: after a
// restart, an engine recovered from its store must land on a contiguous
// prefix of the submitted generations covering every acknowledged one, with
// relational state, graph, index and full search output byte-identical to a
// fresh build over that prefix.

// batchMaker generates random mutation batches against an evolving working
// mirror (which assumes every submitted batch applies) and remembers them,
// so any prefix of the submission history can be rebuilt from scratch.
type batchMaker struct {
	rng     *rand.Rand
	mirror  *relation.Database
	counter int
	batches []Mutation
}

func newBatchMaker(seed int64) *batchMaker {
	return &batchMaker{rng: rand.New(rand.NewSource(seed)), mirror: paperdb.MustLoad()}
}

// next returns a non-empty batch valid against the submission history so far.
func (bm *batchMaker) next(t *testing.T) Mutation {
	t.Helper()
	for {
		n := 1 + bm.rng.Intn(3)
		ops := make([]Op, 0, n)
		for i := 0; i < n; i++ {
			op, ok := randomOp(t, bm.rng, bm.mirror, &bm.counter)
			if !ok {
				continue
			}
			replayOp(t, bm.mirror, op)
			ops = append(ops, op)
		}
		if len(ops) > 0 {
			bm.batches = append(bm.batches, Mutation{Ops: ops})
			return Mutation{Ops: ops}
		}
	}
}

// rebuilt replays the first gen submitted batches onto a fresh paper
// database — the ground truth for what generation gen must contain.
func (bm *batchMaker) rebuilt(t *testing.T, gen uint64) *relation.Database {
	t.Helper()
	db := paperdb.MustLoad()
	for _, m := range bm.batches[:gen] {
		for _, op := range m.Ops {
			replayOp(t, db, op)
		}
	}
	return db
}

func openStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestEngineRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(7)
	for b := 0; b < 6; b++ {
		if _, err := live.Apply(ctx, bm.next(t)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		// The durable engine keeps the equivalence property after every
		// batch, not just at the end of the run.
		requireEngineEquivalent(t, b, live, bm.rebuilt(t, live.Generation()))
	}
	acked := live.Generation()
	st.Close()

	// Restart: a fresh store handle over the same directory, a fresh seed
	// database (which recovery must ignore in favor of the log).
	st2 := openStore(t, dir)
	recovered, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st2))
	if err != nil {
		t.Fatalf("recovering New: %v", err)
	}
	if recovered.Generation() != acked {
		t.Fatalf("recovered generation %d, want %d", recovered.Generation(), acked)
	}
	ps, ok := recovered.PersistStats()
	if !ok || ps.ReplayedRecords != int64(acked) {
		t.Fatalf("PersistStats = %+v, %v; want %d replayed records", ps, ok, acked)
	}
	requireEngineEquivalent(t, int(acked), recovered, bm.rebuilt(t, acked))

	// The recovered engine is fully live: further mutations append to the
	// same log and keep the equivalence property.
	if _, err := recovered.Apply(ctx, bm.next(t)); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	requireEngineEquivalent(t, int(acked)+1, recovered, bm.rebuilt(t, acked+1))
}

func TestEngineRecoverFromSnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st), WithSnapshotEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(11)
	for b := 0; b < 5; b++ {
		if _, err := live.Apply(ctx, bm.next(t)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		// Automatic snapshots at even generations must not disturb the
		// live state: the equivalence property holds after every batch.
		requireEngineEquivalent(t, b, live, bm.rebuilt(t, live.Generation()))
	}
	st.Close()

	// Generations 1..5 with a snapshot every 2: recovery loads the snapshot
	// of generation 4 and replays only record 5.
	st2 := openStore(t, dir)
	recovered, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st2))
	if err != nil {
		t.Fatalf("recovering New: %v", err)
	}
	if recovered.Generation() != 5 {
		t.Fatalf("recovered generation %d, want 5", recovered.Generation())
	}
	ps, _ := recovered.PersistStats()
	if ps.SnapshotGeneration != 4 || ps.ReplayedRecords != 1 {
		t.Fatalf("PersistStats = %+v, want snapshot gen 4 and 1 replayed record", ps)
	}
	requireEngineEquivalent(t, 5, recovered, bm.rebuilt(t, 5))
}

// TestEngineFaultMatrix crashes the store at every Apply step boundary and
// asserts restart recovery lands on a contiguous prefix of the submitted
// generations that covers every acknowledged one — including the
// post-append crash, where recovery legally lands one generation AHEAD of
// the last acknowledgment (the record was durable, the ack was lost).
func TestEngineFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		point store.CrashPoint
		torn  int
		// wantGen is the generation recovery must land on after 2 acked
		// batches and one faulted third.
		wantGen uint64
	}{
		{"pre-append", store.CrashPreAppend, 0, 2},
		{"torn-append-empty", store.CrashTornAppend, 0, 2},
		{"torn-append-header", store.CrashTornAppend, 5, 2},
		{"torn-append-payload", store.CrashTornAppend, 12, 2},
		{"post-append", store.CrashPostAppend, 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := openStore(t, dir)
			faulty := store.NewFaultStore(fs)
			live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(faulty), WithSnapshotEvery(-1))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			bm := newBatchMaker(23)
			for b := 0; b < 2; b++ {
				if _, err := live.Apply(ctx, bm.next(t)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			faulty.Point, faulty.TornBytes = tc.point, tc.torn
			if _, err := live.Apply(ctx, bm.next(t)); !errors.Is(err, ErrPersistence) {
				t.Fatalf("faulted Apply = %v, want ErrPersistence", err)
			}
			// The failed Apply published nothing, durable or not.
			if live.Generation() != 2 {
				t.Fatalf("generation after faulted Apply = %d, want 2", live.Generation())
			}
			fs.Close()

			st2 := openStore(t, dir)
			recovered, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st2))
			if err != nil {
				t.Fatalf("recovering New: %v", err)
			}
			if recovered.Generation() != tc.wantGen {
				t.Fatalf("recovered generation %d, want %d", recovered.Generation(), tc.wantGen)
			}
			requireEngineEquivalent(t, int(tc.wantGen), recovered, bm.rebuilt(t, tc.wantGen))
		})
	}
}

// TestShardedFaultMatrix builds, for every crash point and every shard, a
// data directory a crash of the removed sharded engine could have left:
// shard-<i>/ directories each holding a real WAL, one of them frozen at the
// crash point (a torn tail, a durable but unacknowledged record). Open must
// refuse each such directory, with and without the meta/vector.log commit
// log beside the shards, and change nothing in it: recovering it instead
// would serve an empty wal.log and drop every acknowledged generation.
func TestShardedFaultMatrix(t *testing.T) {
	const shards = 3
	points := []struct {
		name  string
		point store.CrashPoint
		torn  int
	}{
		{"pre-append", store.CrashPreAppend, 0},
		{"torn-append-empty", store.CrashTornAppend, 0},
		{"torn-append-header", store.CrashTornAppend, 5},
		{"torn-append-payload", store.CrashTornAppend, 12},
		{"post-append", store.CrashPostAppend, 0},
	}
	for _, tc := range points {
		for target := 0; target < shards; target++ {
			t.Run(fmt.Sprintf("%s/shard-%d", tc.name, target), func(t *testing.T) {
				dir := t.TempDir()
				ctx := context.Background()
				for s := 0; s < shards; s++ {
					fs := openStore(t, filepath.Join(dir, fmt.Sprintf("shard-%d", s)))
					faulty := store.NewFaultStore(fs)
					faulty.Sticky = true
					live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(faulty), WithSnapshotEvery(-1))
					if err != nil {
						t.Fatal(err)
					}
					bm := newBatchMaker(int64(23 + s))
					for b := 0; b < 2; b++ {
						if _, err := live.Apply(ctx, bm.next(t)); err != nil {
							t.Fatalf("shard %d batch %d: %v", s, b, err)
						}
					}
					if s == target {
						faulty.Point, faulty.TornBytes = tc.point, tc.torn
						if _, err := live.Apply(ctx, bm.next(t)); !errors.Is(err, ErrPersistence) {
							t.Fatalf("faulted Apply = %v, want ErrPersistence", err)
						}
						// The crash freezes the shard's directory: a later
						// Apply must not reach it.
						faulty.Point = store.CrashNone
						if _, err := live.Apply(ctx, bm.next(t)); !errors.Is(err, ErrPersistence) || !faulty.Dead() {
							t.Fatalf("Apply after the crash = %v, want ErrPersistence on a dead store", err)
						}
					}
					fs.Close()
				}
				requireRefused(t, dir, "shard-")
				// The commit log the sharded engine created at open, empty
				// when the crash came before its first commit.
				if err := os.MkdirAll(filepath.Join(dir, "meta"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "meta", "vector.log"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				requireRefused(t, dir, "meta/vector.log")
			})
		}
	}
}

// requireRefused opens dir as a store and requires ErrShardedLayout with an
// error naming want, and every file and directory under dir unchanged.
func requireRefused(t *testing.T, dir, want string) {
	t.Helper()
	before := dirState(t, dir)
	st, err := store.Open(dir)
	if err == nil {
		st.Close()
		t.Fatal("store.Open accepted a sharded layout")
	}
	if !errors.Is(err, store.ErrShardedLayout) || !strings.Contains(err.Error(), want) {
		t.Fatalf("store.Open = %v, want ErrShardedLayout naming %q", err, want)
	}
	if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("store.Open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// dirState maps every path under dir to its contents; directories map to
// "/".
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			state[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(p)
		state[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestApplyPersistenceErrorKeepsGeneration(t *testing.T) {
	fs := openStore(t, t.TempDir())
	faulty := store.NewFaultStore(fs)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(faulty), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(31)
	batch := bm.next(t)

	faulty.Point = store.CrashPreAppend
	if _, err := live.Apply(ctx, batch); !errors.Is(err, ErrPersistence) {
		t.Fatalf("Apply = %v, want ErrPersistence", err)
	}
	if live.Generation() != 0 {
		t.Fatalf("generation = %d after failed Apply, want 0", live.Generation())
	}
	// The engine keeps serving, and the identical retry succeeds once the
	// store recovers — same batch, same resulting generation.
	faulty.Point = store.CrashNone
	gen, err := live.Apply(ctx, batch)
	if err != nil || gen != 1 {
		t.Fatalf("retried Apply = %d, %v; want generation 1", gen, err)
	}
	requireEngineEquivalent(t, 1, live, bm.rebuilt(t, 1))
}

func TestApplySnapshotErrorDoesNotFailApply(t *testing.T) {
	fs := openStore(t, t.TempDir())
	faulty := store.NewFaultStore(fs)
	// Cadence 1: every Apply tries to snapshot; the injected mid-snapshot
	// crash must be absorbed.
	live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(faulty), WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	bm := newBatchMaker(41)
	faulty.Point = store.CrashMidSnapshot
	gen, err := live.Apply(context.Background(), bm.next(t))
	if err != nil || gen != 1 {
		t.Fatalf("Apply = %d, %v; want generation 1 despite snapshot fault", gen, err)
	}
	ps, _ := live.PersistStats()
	if ps.SnapshotErrors != 1 || ps.SnapshotGeneration != 0 {
		t.Fatalf("PersistStats = %+v, want 1 snapshot error and no snapshot", ps)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(53)
	for b := 0; b < 3; b++ {
		if _, err := live.Apply(ctx, bm.next(t)); err != nil {
			t.Fatal(err)
		}
		requireEngineEquivalent(t, b, live, bm.rebuilt(t, live.Generation()))
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ps, _ := live.PersistStats()
	if ps.WALRecords != 0 || ps.SnapshotGeneration != 3 {
		t.Fatalf("after Checkpoint: %+v, want empty WAL and snapshot gen 3", ps)
	}
	st.Close()

	st2 := openStore(t, dir)
	recovered, err := New(&Database{db: paperdb.MustLoad()}, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Generation() != 3 {
		t.Fatalf("recovered generation %d, want 3", recovered.Generation())
	}
	if ps, _ := recovered.PersistStats(); ps.ReplayedRecords != 0 {
		t.Fatalf("recovery from checkpoint replayed %d records, want 0", ps.ReplayedRecords)
	}
	requireEngineEquivalent(t, 3, recovered, bm.rebuilt(t, 3))
}

func TestEngineWithoutStore(t *testing.T) {
	live, err := New(&Database{db: paperdb.MustLoad()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := live.PersistStats(); ok {
		t.Fatal("PersistStats reported a store on a memory-only engine")
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on memory-only engine: %v", err)
	}
}

// TestRecoverFailureUnfreezesDatabase pins the New invariant: when recovery
// fails (here: a log whose generations cannot apply to the seed), the
// caller's database is left unfrozen.
func TestRecoverFailureUnfreezesDatabase(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// Log a mutation referencing a table the seed database lacks.
	if err := st.Append(1, store.Mutation{Ops: []store.Op{{Kind: 1, Table: "NO_SUCH_TABLE", Row: map[string]any{"ID": "x"}}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	db := &Database{db: paperdb.MustLoad()}
	if _, err := New(db, WithStore(st2)); !errors.Is(err, ErrPersistence) {
		t.Fatalf("New = %v, want ErrPersistence", err)
	}
	if db.Frozen() {
		t.Fatal("failed New left the database frozen")
	}
}
