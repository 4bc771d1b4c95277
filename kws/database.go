// Package kws is the public API of the library: keyword search over
// relational (structural) data with close/loose association analysis, as
// described in "Close and Loose Associations in Keyword Search from
// Structural Data" (Vainio, Junkkari, Kekäläinen; EDBT/ICDT 2017 workshops).
//
// A Database is defined from table specifications (columns, primary keys and
// foreign keys) and filled with rows; an Engine searches it with keyword
// queries and returns connections of tuples ranked by configurable
// strategies, each annotated with its relational and conceptual (ER) length
// and its close/loose association verdict.
//
// One Engine is goroutine-safe and serves many concurrent queries; every
// option travels per call in the Query, and the context cancels long
// enumerations:
//
//	engine, _ := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
//	results, _ := engine.Search(ctx, kws.Query{
//		Keywords: []string{"Smith", "XML"},
//		Ranking:  kws.RankCloseFirst,
//		MaxJoins: 3,
//	})
//	for _, r := range results {
//		fmt.Println(r.Rank, r.Connection, r.Close, r.ERLength)
//	}
//
// Results can also be consumed incrementally, before the enumeration
// finishes, with Engine.Stream (callback) or Engine.Results (iterator);
// streamed results arrive unranked, in discovery order. Additional search
// engines and ranking strategies plug in through RegisterEngine and
// RegisterRanker. Defaults for every query of an engine are set once with
// WithDefaults, for example New(db, WithDefaults(Config{MaxJoins: 3})).
//
// # Concurrency and batching
//
// The whole stack is parallel by default and deterministic at every setting:
// kws.New builds the tuple graph and the inverted index concurrently (each
// fanning out per-table workers), BANKS runs its per-keyword expansions in
// parallel goroutines, and the paths engine fans its per-source enumerations
// across a bounded worker pool whose output order is identical to the
// sequential walk. Behind that enumeration the paths engine also pipelines
// answer annotation: the single-goroutine dedup stage feeds a bounded pool
// that runs the association analysis, the instance-level corroboration and
// the content scoring of many answers concurrently, and an order-preserving
// emitter delivers them in exactly the sequential order — so Search, Stream
// and SearchBatch all overlap the dominant per-answer cost without changing
// a byte of output. WithParallelism bounds all of it at the engine level and
// Query.Parallelism per call; 1 forces the fully sequential paths, which
// produce byte-identical results.
//
// Many queries are served in one call with Engine.SearchBatch, which runs up
// to the configured parallelism of them at once over the shared substrates
// and returns one BatchResult per query, in query order, with per-query
// errors:
//
//	engine, _ := kws.New(db, kws.WithParallelism(8))
//	for i, br := range engine.SearchBatch(ctx, queries) {
//		if br.Err != nil {
//			log.Printf("query %d: %v", i, br.Err)
//			continue
//		}
//		consume(br.Results)
//	}
//
// # Live updates and snapshots
//
// An Engine is live: Engine.Apply takes a batched Mutation — Insert, Delete
// and Update ops — and publishes its effect as the engine's next generation,
// maintaining the tuple graph and the keyword index incrementally instead of
// rebuilding them:
//
//	gen, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
//		kws.Insert("EMPLOYEE", map[string]any{"SSN": "e5", "L_NAME": "Turing", "D_ID": "d1"}),
//		kws.Update("EMPLOYEE", map[string]any{"SSN": "e1"}, map[string]any{"D_ID": "d2"}),
//		kws.Delete("DEPENDENT", map[string]any{"ID": "t2"}),
//	}})
//
// Generations are immutable and published atomically. Apply guarantees to
// concurrent readers: (1) no blocking — Search, Stream and SearchBatch never
// wait for a writer; (2) no torn reads — a call uses the generation current
// at its start for its whole duration, a SearchBatch answers every query of
// the batch from one generation, and a Stream keeps yielding its generation
// even when mutations land mid-stream; (3) atomicity — a batch either
// publishes completely or, on any error (including context cancellation),
// not at all, leaving the engine on its previous generation; and (4)
// rebuild equivalence — after any sequence of mutations, search output is
// byte-identical to a fresh kws.New over the mutated data (the property
// tests in this package enforce this). Engine.Generation reports the current
// generation number. Writers are serialized; readers scale independently.
//
// Once handed to kws.New, a Database freezes: Insert, AddTable and the CSV
// loaders fail with ErrFrozenDatabase instead of mutating data behind the
// engine's back. Route all changes through Engine.Apply.
//
// # Caching and serving
//
// Cache fronts an Engine with a bounded, sharded LRU keyed by the
// normalized query and the generation, so Apply implicitly invalidates
// every cached result by publishing a new generation — no scanning, no
// bookkeeping. Concurrent identical misses collapse into one search
// (singleflight), and a hit is always byte-identical to an uncached search
// of the same generation:
//
//	cache := kws.NewCache(engine, kws.CacheOptions{MaxBytes: 64 << 20})
//	results, info, err := cache.SearchInfo(ctx, q) // info.Hit, info.Generation
//
// cmd/kwsd serves an Engine and its Cache over HTTP — single, batch and
// NDJSON-streamed search, mutations, health and stats — with admission
// control and latency metrics; see docs/http-api.md for the wire format
// and ARCHITECTURE.md for how the layers fit together.
package kws

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// ErrFrozenDatabase is returned by Database mutators (AddTable, Insert,
// LoadCSV, LoadCSVDir) after the database has been handed to kws.New. A
// built engine snapshots the data: writes through the facade would neither
// reach the engine's graph and index (stale reads) nor stay isolated from
// its association analyzer — route every change through Engine.Apply
// instead.
var ErrFrozenDatabase = errors.New("kws: database is frozen by an engine; apply changes through Engine.Apply")

// ColumnSpec declares one column of a table.
type ColumnSpec struct {
	// Name is the column name.
	Name string
	// Type is one of "string", "text", "int", "float", "bool". "text"
	// columns hold free text and are keyword-indexed; "string" columns
	// hold identifier-like values and are indexed as well unless they are
	// key columns.
	Type string
	// Nullable marks the column as optional.
	Nullable bool
}

// ForeignKeySpec declares a referential constraint.
type ForeignKeySpec struct {
	// Name is an optional constraint name; it doubles as the relationship
	// name at the conceptual level.
	Name string
	// Columns are the referencing columns of this table.
	Columns []string
	// RefTable and RefColumns identify the referenced primary key.
	RefTable   string
	RefColumns []string
}

// TableSpec declares a table.
type TableSpec struct {
	Name        string
	Columns     []ColumnSpec
	PrimaryKey  []string
	ForeignKeys []ForeignKeySpec
}

// Database is a self-contained in-memory relational database. Once handed to
// kws.New it freezes: further AddTable, Insert and CSV loads fail with
// ErrFrozenDatabase, and changes flow through Engine.Apply.
type Database struct {
	db     *relation.Database
	frozen atomic.Bool
}

// freeze marks the database as owned by an engine; see ErrFrozenDatabase.
func (d *Database) freeze() { d.frozen.Store(true) }

// unfreeze releases a freeze taken by a New that subsequently failed (WAL
// replay is the only fallible step after freezing), preserving the invariant
// that a failed New never leaves a frozen database.
func (d *Database) unfreeze() { d.frozen.Store(false) }

// Frozen reports whether the database has been handed to kws.New and is now
// read-only through this facade.
func (d *Database) Frozen() bool { return d.frozen.Load() }

// NewDatabase creates an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{db: relation.NewDatabase(name)}
}

// AddTable adds a table according to the specification.
func (d *Database) AddTable(spec TableSpec) error {
	if d.Frozen() {
		return ErrFrozenDatabase
	}
	cols := make([]relation.Column, 0, len(spec.Columns))
	for _, c := range spec.Columns {
		t, err := parseColumnType(c.Type)
		if err != nil {
			return fmt.Errorf("kws: table %s column %s: %w", spec.Name, c.Name, err)
		}
		cols = append(cols, relation.Column{Name: c.Name, Type: t, Nullable: c.Nullable})
	}
	fks := make([]relation.ForeignKey, 0, len(spec.ForeignKeys))
	for _, fk := range spec.ForeignKeys {
		fks = append(fks, relation.ForeignKey{
			Name:        fk.Name,
			Columns:     append([]string(nil), fk.Columns...),
			RefRelation: fk.RefTable,
			RefColumns:  append([]string(nil), fk.RefColumns...),
		})
	}
	schema, err := relation.NewSchema(spec.Name, cols, spec.PrimaryKey, fks...)
	if err != nil {
		return err
	}
	_, err = d.db.CreateTable(schema)
	return err
}

// Insert adds a row to a table. Values may be string, int, int64, float64 or
// bool; missing columns become NULL. After the database has been given to
// kws.New, Insert fails with ErrFrozenDatabase — historically it silently
// mutated the relational data behind the frozen engine's back, which the
// engine's index and graph never saw (a stale read) while its analyzer did.
func (d *Database) Insert(table string, row map[string]any) error {
	if d.Frozen() {
		return ErrFrozenDatabase
	}
	t, ok := d.db.Table(table)
	if !ok {
		return fmt.Errorf("kws: unknown table %s", table)
	}
	values, err := coerceRow(t, row)
	if err != nil {
		return fmt.Errorf("kws: %w", err)
	}
	_, err = t.Insert(values)
	return err
}

// Validate checks the catalog (foreign keys reference existing primary keys)
// and the data (no dangling references).
func (d *Database) Validate() error {
	if err := d.db.Validate(); err != nil {
		return err
	}
	if errs := d.db.CheckIntegrity(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// Tables returns the table names in creation order.
func (d *Database) Tables() []string { return d.db.TableNames() }

// TupleCount returns the total number of rows.
func (d *Database) TupleCount() int { return d.db.TupleCount() }

// Dump writes every table as aligned text to w.
func (d *Database) Dump(w io.Writer) error { return relation.DumpDatabase(w, d.db) }

// internalDB exposes the underlying engine database to the facade.
func (d *Database) internalDB() *relation.Database { return d.db }

// PaperExample returns the running example of the paper: the company
// database of Figure 2 (departments, projects, employees, assignments and
// dependents).
func PaperExample() *Database {
	return &Database{db: paperdb.MustLoad()}
}

// SyntheticCompany generates a synthetic company database following the
// paper's schema, sized by the scale factor and seeded for reproducibility.
func SyntheticCompany(scale int, seed int64) *Database {
	return &Database{db: workload.MustGenerate(workload.ScaledConfig(scale, seed))}
}

// SyntheticLogs generates a synthetic log-search database (services, hosts,
// timestamped log events with high-cardinality trace tokens, incidents
// attached through an N:M junction), sized by the scale factor and seeded
// for reproducibility.
func SyntheticLogs(scale int, seed int64) *Database {
	return &Database{db: workload.MustGenerateLogs(workload.ScaledLogsConfig(scale, seed))}
}

// SyntheticDocs generates a synthetic document-search database (collections
// of documents whose nested JSON fields are flattened into dotted-path rows,
// tagged through an N:M junction), sized by the scale factor and seeded for
// reproducibility.
func SyntheticDocs(scale int, seed int64) *Database {
	return &Database{db: workload.MustGenerateDocs(workload.ScaledDocsConfig(scale, seed))}
}

func parseColumnType(s string) (relation.Type, error) {
	switch s {
	case "string", "varchar", "":
		return relation.TypeString, nil
	case "text":
		return relation.TypeText, nil
	case "int", "integer":
		return relation.TypeInt, nil
	case "float", "double":
		return relation.TypeFloat, nil
	case "bool", "boolean":
		return relation.TypeBool, nil
	default:
		return relation.TypeNull, fmt.Errorf("unknown column type %q", s)
	}
}

func toValue(v any, t relation.Type) (relation.Value, error) {
	if v == nil {
		return relation.Null(), nil
	}
	switch x := v.(type) {
	case string:
		if t == relation.TypeText {
			return relation.Text(x), nil
		}
		return relation.String(x), nil
	case int:
		return relation.Int(int64(x)), nil
	case int64:
		return relation.Int(x), nil
	case float64:
		if t == relation.TypeInt {
			if x == float64(int64(x)) {
				return relation.Int(int64(x)), nil
			}
			return relation.Null(), fmt.Errorf("value %v is not an integer", x)
		}
		return relation.Float(x), nil
	case bool:
		return relation.Bool(x), nil
	default:
		return relation.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}
