package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-profile", "standard", "-suites", "bibliography, scale-n",
		"-modes", "read,mixed", "-target", "http://localhost:1", "-scale", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.profile != "standard" || cfg.scale != 3 || cfg.target != "http://localhost:1" {
		t.Errorf("parsed config = %+v", cfg)
	}
	if len(cfg.suites) != 2 || cfg.suites[1] != "scale-n" {
		t.Errorf("suites = %v", cfg.suites)
	}
	if len(cfg.modes) != 2 || cfg.modes[0] != bench.ModeRead {
		t.Errorf("modes = %v", cfg.modes)
	}

	cfg, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.modes) != len(bench.Modes()) || len(cfg.suites) != 0 {
		t.Errorf("default config = %+v", cfg)
	}

	if _, err := parseFlags([]string{"-modes", "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := parseFlags([]string{"positional"}); err == nil {
		t.Error("positional argument accepted")
	}
}

func TestOpenTargetRejectsBadSpec(t *testing.T) {
	sc, err := bench.Build("bibliography", bench.SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openTarget("localhost:8080", sc); err == nil {
		t.Error("scheme-less target accepted")
	}
	target, err := openTarget("inproc", sc)
	if err != nil {
		t.Fatal(err)
	}
	target.Close()
}

func TestListSuites(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bibliography", "logs-search", "json-docs", "scale-n", "smoke", "standard"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-list output lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestRunSmokeEndToEnd runs the real smoke profile for one small suite in
// process, writes the report to disk and re-validates it with -check — the
// exact cycle the CI bench-harness job performs.
func TestRunSmokeEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	err := run(t.Context(), []string{
		"-profile", "smoke", "-suites", "bibliography", "-scale", "1", "-out", out,
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	report, err := bench.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suites) != len(bench.Modes()) {
		t.Fatalf("report has %d rows, want %d", len(report.Suites), len(bench.Modes()))
	}
	if report.TotalErrors() != 0 {
		t.Fatalf("smoke run recorded %d errors", report.TotalErrors())
	}
	if report.Config.Profile != "smoke" || report.Config.Target != "inproc" {
		t.Errorf("config echo = %+v", report.Config)
	}

	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-check", out}, &buf); err != nil {
		t.Fatalf("-check rejected a fresh report: %v", err)
	}
	if !strings.Contains(buf.String(), "ok:") {
		t.Errorf("-check output = %q", buf.String())
	}
}

func TestCheckRejectsBadReports(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-check", bad}, os.Stderr); err == nil {
		t.Error("-check accepted malformed JSON")
	}
	if err := run(t.Context(), []string{"-check", filepath.Join(dir, "missing.json")}, os.Stderr); err == nil {
		t.Error("-check accepted a missing file")
	}

	// A structurally valid report that records failures must fail -check.
	failing := bench.NewReport(bench.ConfigEcho{}, []bench.SuiteResult{{
		Suite: "bibliography", Mode: "read", Target: "inproc",
		Ops: 10, QueriesPerOp: 1, Errors: 2,
		LatencyUS: bench.Latency{P50: 1, P95: 2, P99: 3},
	}})
	path := filepath.Join(dir, "failing.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteReport(f, failing); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(t.Context(), []string{"-check", path}, os.Stderr); err == nil {
		t.Error("-check accepted a report with errors")
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-profile", "bogus"}, os.Stderr); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := run(ctx, []string{"-suites", "bogus"}, os.Stderr); err == nil {
		t.Error("unknown suite accepted")
	}
}

// TestCommittedReportsCheck runs -check over every BENCH_*.json committed at
// the repository root, so the recorded perf trajectory stays readable by the
// current report schema. BENCH_8.json holds rows at two engine shard counts,
// which the decode-only Shards fields keep distinct.
func TestCommittedReportsCheck(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, p := range paths {
		if err := run(t.Context(), []string{"-check", p}, io.Discard); err != nil {
			t.Errorf("-check %s: %v", filepath.Base(p), err)
		}
	}
}
