// Command kws-bench drives load against the keyword-search engine and
// writes a machine-readable performance report.
//
// Usage:
//
//	kws-bench                                   # smoke profile, all suites, in process
//	kws-bench -profile standard -suites scale-n -modes read,mixed
//	kws-bench -target http://localhost:8080 -suites bibliography -out BENCH.json
//	kws-bench -check BENCH.json                 # validate a committed report
//	kws-bench -list                             # show suites and profiles
//
// Each run measures every selected (suite, mode) pair and writes one JSON
// report (see docs/benchmarking.md for the schema). Against a remote kwsd
// the server must be booted with the suite's matching database — kws-bench
// prints the expected -db flag per suite in -list. Workloads are seeded and
// deterministic: the same flags replay the same operation sequence.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	profile string
	suites  []string
	modes   []bench.Mode
	target  string
	out     string
	check   string
	list    bool
	scale   int
	seed    int64
	workers int
}

func parseFlags(argv []string) (config, error) {
	fs := flag.NewFlagSet("kws-bench", flag.ContinueOnError)
	var (
		profile = fs.String("profile", "smoke", `load profile: "smoke" or "standard"`)
		suites  = fs.String("suites", "", "comma-separated suites to run (default: all)")
		modes   = fs.String("modes", "", "comma-separated modes: read,mixed,batch,stream (default: all)")
		target  = fs.String("target", "inproc", `"inproc" or a kwsd base URL like http://localhost:8080`)
		out     = fs.String("out", "-", `report destination ("-" = stdout)`)
		check   = fs.String("check", "", "validate an existing report file and exit")
		list    = fs.Bool("list", false, "list suites and profiles and exit")
		scale   = fs.Int("scale", 0, "dataset scale override (0 = suite default)")
		seed    = fs.Int64("seed", 0, "workload seed override (0 = profile default)")
		workers = fs.Int("workers", 0, "worker-pool size override (0 = profile default)")
	)
	if err := fs.Parse(argv); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := config{
		profile: *profile,
		target:  *target,
		out:     *out,
		check:   *check,
		list:    *list,
		scale:   *scale,
		seed:    *seed,
		workers: *workers,
	}
	if *suites != "" {
		cfg.suites = splitList(*suites)
	}
	for _, m := range splitList(*modes) {
		mode, err := bench.ParseMode(m)
		if err != nil {
			return config{}, err
		}
		cfg.modes = append(cfg.modes, mode)
	}
	if len(cfg.modes) == 0 {
		cfg.modes = bench.Modes()
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(ctx context.Context, argv []string, stdout io.Writer) error {
	cfg, err := parseFlags(argv)
	if err != nil {
		return err
	}
	if cfg.list {
		return listSuites(stdout)
	}
	if cfg.check != "" {
		return checkReport(stdout, cfg.check)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	profile, err := bench.ProfileByName(cfg.profile)
	if err != nil {
		return err
	}
	if cfg.seed != 0 {
		profile.Seed = cfg.seed
	}
	if cfg.workers != 0 {
		profile.Workers = cfg.workers
	}
	suiteOpts := bench.SuiteOptions{Scale: cfg.scale, Seed: profile.Seed}
	names := cfg.suites
	if len(names) == 0 {
		names = bench.Names()
	}

	var results []bench.SuiteResult
	for _, name := range names {
		sc, err := bench.Build(name, suiteOpts)
		if err != nil {
			return err
		}
		target, err := openTarget(cfg.target, sc)
		if err != nil {
			return err
		}
		for _, mode := range cfg.modes {
			fmt.Fprintf(os.Stderr, "kws-bench: %s/%s against %s...\n", name, mode, target.Kind())
			res, err := bench.Run(ctx, target, sc, mode, profile)
			if err != nil {
				target.Close()
				return fmt.Errorf("suite %s mode %s: %w", name, mode, err)
			}
			results = append(results, res)
		}
		target.Close()
	}

	report := bench.NewReport(echoConfig(cfg, profile, names), results)
	return writeReport(stdout, cfg.out, report)
}

// openTarget builds the target for one suite: the in-process engine path, or
// a remote kwsd that must serve the suite's database (Scenario.ServerDB).
func openTarget(spec string, sc bench.Scenario) (bench.Target, error) {
	if spec == "inproc" {
		return bench.NewEngineTarget(sc)
	}
	if !strings.HasPrefix(spec, "http://") && !strings.HasPrefix(spec, "https://") {
		return nil, fmt.Errorf("target must be \"inproc\" or an http(s) URL, got %q", spec)
	}
	return bench.NewRemoteTarget(spec), nil
}

func echoConfig(cfg config, p bench.Profile, suites []string) bench.ConfigEcho {
	modes := make([]string, len(cfg.modes))
	for i, m := range cfg.modes {
		modes[i] = string(m)
	}
	targetKind := "inproc"
	if cfg.target != "inproc" {
		targetKind = "remote"
	}
	scale := cfg.scale
	if scale == 0 {
		scale = bench.SuiteOptions{}.WithDefaults().Scale
	}
	sort.Strings(suites)
	return bench.ConfigEcho{
		Profile:         p.Name,
		Target:          targetKind,
		Suites:          suites,
		Modes:           modes,
		Scale:           scale,
		Seed:            p.Seed,
		Workers:         p.Workers,
		RatePerSec:      p.RatePerSec,
		WarmupOps:       p.WarmupOps,
		MeasureOps:      p.MeasureOps,
		DurationSeconds: p.Duration.Seconds(),
		BatchSize:       p.BatchSize,
		MutateEvery:     p.MutateEvery,
	}
}

func writeReport(stdout io.Writer, out string, report bench.Report) error {
	if out == "-" || out == "" {
		return bench.WriteReport(stdout, report)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteReport(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkReport validates a committed report: parseable, schema-stable, and
// error-free. CI runs this against the report a smoke run just wrote.
func checkReport(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	report, err := bench.ReadReport(f)
	if err != nil {
		return err
	}
	if n := report.TotalErrors(); n > 0 {
		return fmt.Errorf("report %s records %d failed operations", path, n)
	}
	fmt.Fprintf(stdout, "ok: %s (%d suite rows, 0 errors)\n", path, len(report.Suites))
	return nil
}

func listSuites(stdout io.Writer) error {
	fmt.Fprintln(stdout, "suites (kwsd -db flag in parentheses):")
	for _, name := range bench.Names() {
		sc, err := bench.Build(name, bench.SuiteOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-14s (%-9s) %s\n", sc.Name, sc.ServerDB, sc.Description)
	}
	fmt.Fprintln(stdout, "profiles:")
	for _, p := range []bench.Profile{bench.SmokeProfile(), bench.StandardProfile()} {
		fmt.Fprintf(stdout, "  %-14s workers=%d warmup=%d measure=%d duration=%s\n",
			p.Name, p.Workers, p.WarmupOps, p.MeasureOps, p.Duration)
	}
	fmt.Fprintln(stdout, "modes:", bench.Modes())
	return nil
}
