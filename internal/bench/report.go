package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// ReportSchema is the current report schema version. Bump it only when a
// field is renamed or removed — additions are backward compatible.
const ReportSchema = 1

// Host records where a report was measured; numbers are only comparable
// between runs on similar hosts.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// CurrentHost captures the running process's host metadata.
func CurrentHost() Host {
	return Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// ConfigEcho records the knobs a run was invoked with, so a committed
// report is self-describing and reproducible.
type ConfigEcho struct {
	Profile         string   `json:"profile"`
	Target          string   `json:"target"`
	Suites          []string `json:"suites"`
	Modes           []string `json:"modes"`
	Scale           int      `json:"scale"`
	Seed            int64    `json:"seed"`
	Workers         int      `json:"workers"`
	RatePerSec      float64  `json:"rate_per_sec"`
	WarmupOps       int      `json:"warmup_ops"`
	MeasureOps      int      `json:"measure_ops"`
	DurationSeconds float64  `json:"duration_seconds"`
	BatchSize       int      `json:"batch_size"`
	MutateEvery     int      `json:"mutate_every"`
	// Shards is decode-only history: reports committed while kws-bench
	// could sweep in-process shard counts echo the swept counts here.
	// Nothing writes it any more.
	Shards []int `json:"shards,omitempty"`
}

// Report is the machine-readable outcome of one kws-bench invocation — the
// envelope committed as BENCH_*.json per PR so the perf trajectory is
// diffable.
type Report struct {
	Schema int           `json:"schema"`
	Tool   string        `json:"tool"`
	Host   Host          `json:"host"`
	Config ConfigEcho    `json:"config"`
	Suites []SuiteResult `json:"suites"`
}

// NewReport assembles the envelope around measured suite results, sorted by
// (suite, mode) so reports diff stably regardless of execution order.
func NewReport(cfg ConfigEcho, results []SuiteResult) Report {
	sorted := append([]SuiteResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Suite != sorted[j].Suite {
			return sorted[i].Suite < sorted[j].Suite
		}
		return sorted[i].Mode < sorted[j].Mode
	})
	return Report{
		Schema: ReportSchema,
		Tool:   "kws-bench",
		Host:   CurrentHost(),
		Config: cfg,
		Suites: sorted,
	}
}

// TotalErrors sums failed operations across every suite row (sheds and
// drops are not errors: they are the server and the harness protecting
// themselves).
func (r Report) TotalErrors() int64 {
	var n int64
	for _, s := range r.Suites {
		n += s.Errors
	}
	return n
}

// Validate checks the structural invariants CI relies on: a known schema,
// at least one measured suite, and internally consistent rows.
func (r Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("bench: report schema %d, want %d", r.Schema, ReportSchema)
	}
	if r.Tool != "kws-bench" {
		return fmt.Errorf("bench: report tool %q, want kws-bench", r.Tool)
	}
	if len(r.Suites) == 0 {
		return fmt.Errorf("bench: report has no suite results")
	}
	seen := make(map[string]bool, len(r.Suites))
	for i, s := range r.Suites {
		if s.Suite == "" || s.Mode == "" {
			return fmt.Errorf("bench: suite row %d lacks suite or mode", i)
		}
		// Historical sharded reports hold one row per shard count, so the
		// shard count stays part of a row's identity.
		key := fmt.Sprintf("%s/%s/%s/%d", s.Suite, s.Mode, s.Target, s.Shards)
		if seen[key] {
			return fmt.Errorf("bench: duplicate suite row %s", key)
		}
		seen[key] = true
		if s.Ops <= 0 {
			return fmt.Errorf("bench: suite %s measured no operations", key)
		}
		if s.Errors < 0 || s.Shed < 0 || s.Dropped < 0 {
			return fmt.Errorf("bench: suite %s has negative outcome counts", key)
		}
		if s.Errors+s.Shed > s.Ops {
			return fmt.Errorf("bench: suite %s outcomes exceed ops", key)
		}
		l := s.LatencyUS
		if l.P50 < 0 || l.P50 > l.P95 || l.P95 > l.P99 {
			return fmt.Errorf("bench: suite %s quantiles not monotone: %+v", key, l)
		}
		if s.QPS < 0 || s.DurationSeconds < 0 {
			return fmt.Errorf("bench: suite %s has negative throughput fields", key)
		}
		if s.CacheHitRate < 0 || s.CacheHitRate > 1 {
			return fmt.Errorf("bench: suite %s hit rate %g outside [0,1]", key, s.CacheHitRate)
		}
	}
	return nil
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, r Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport strictly parses and validates a report, so CI distinguishes
// "malformed report" from "disk noise" with one call.
func ReadReport(rd io.Reader) (Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return Report{}, fmt.Errorf("bench: malformed report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Report{}, err
	}
	return r, nil
}
