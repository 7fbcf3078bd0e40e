// Command energybench runs the scenario benchmark registry
// (internal/benchkit) and gates performance regressions against a
// committed baseline.
//
// List the registry:
//
//	energybench -list
//
// Run a slice of it (regexp over scenario names, grep semantics — anchor
// with ^…$ to name one exactly) and write the canonical BENCH.json
// report:
//
//	energybench -run 'continuous' -out BENCH_current.json
//
// Gate against a baseline — exits 1 when any scenario runs slower than
// tolerance× its baseline p50, or disappeared from the run:
//
//	energybench -run '.*' -baseline BENCH_baseline.json -tolerance 2
//
// Slice the registry by tier or family: the default tier is the
// ~7-second CI table, the large tier holds the 512–4096-task kernel
// scenarios (make bench-large), and the huge tier holds the 32k–1M-task
// out-of-core instances solved through the memory-mapped EGRF path with
// peak RSS recorded (make bench-huge):
//
//	energybench -tier large -run '.*'
//	energybench -tier huge -run 'mmap'
//	energybench -families chain,layered -run 'continuous'
//
// Refresh the committed baseline after an intentional perf change (the
// baseline carries every tier):
//
//	energybench -tier all -run '.*' -out BENCH_baseline.json
//
// Profile where a scenario spends its time: -profile DIR writes a CPU
// and an alloc pprof profile per scenario (the profiler's overhead lands
// in that run's timings):
//
//	energybench -run 'layered-240' -profile prof
//	go tool pprof -top prof/<scenario>.cpu.pprof
//
// When gating against a baseline, the baseline is first trimmed to the
// same (-run, -tier, -families) slice being measured, so a one-tier run
// against the multi-tier baseline doesn't read the other tiers as
// missing coverage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/benchkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: 0 success, 1 regression gate failed,
// 2 usage or I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("energybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list the scenario registry (every tier) and exit")
		pattern    = fs.String("run", "", "run the scenarios matching this regexp")
		tier       = fs.String("tier", benchkit.TierDefault, "registry tier to run: default, large, huge, or all")
		families   = fs.String("families", "", "comma-separated workload families to keep (empty = all)")
		baseline   = fs.String("baseline", "", "compare the run against this BENCH.json; exit 1 on regression")
		tolerance  = fs.Float64("tolerance", 2, "wall-clock slowdown factor allowed before a scenario regresses")
		minMS      = fs.Float64("minms", benchkit.DefaultMinMS, "noise floor in ms applied to both sides of every ratio")
		warmup     = fs.Int("warmup", 0, "warmup runs per scenario (0 = per-scenario default)")
		reps       = fs.Int("reps", 0, "measured runs per scenario (0 = per-scenario default)")
		out        = fs.String("out", "", "write the BENCH.json report here")
		compareOut = fs.String("compare-out", "", "write the comparison report JSON here")
		asJSON     = fs.Bool("json", false, "print the BENCH.json report to stdout")
		quiet      = fs.Bool("quiet", false, "suppress per-scenario progress on stderr")
		profile    = fs.String("profile", "", "write <scenario>.cpu.pprof and <scenario>.allocs.pprof into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	famList := splitFamilies(*families)

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SCENARIO\tFAMILY\tN\tMODEL\tPATH\tTIER")
		for _, s := range benchkit.FullRegistry() {
			t := s.Tier
			if t == "" {
				t = benchkit.TierDefault
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\n", s.Name, s.Family, s.N, s.Model.Kind, s.Path, t)
		}
		tw.Flush()
		return 0
	}
	if *pattern == "" {
		fmt.Fprintln(stderr, "energybench: nothing to do — pass -list or -run <pattern>")
		fs.Usage()
		return 2
	}

	scenarios, err := benchkit.Select(*pattern, *tier, famList)
	if err != nil {
		fmt.Fprintln(stderr, "energybench:", err)
		return 2
	}
	if len(scenarios) == 0 {
		fmt.Fprintf(stderr, "energybench: no scenario matches %q in the %s tier (see -list)\n", *pattern, *tier)
		return 2
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if *quiet {
		logf = nil
	}
	report, err := benchkit.RunAll(scenarios, benchkit.Options{Warmup: *warmup, Reps: *reps, ProfileDir: *profile}, logf)
	if err != nil {
		fmt.Fprintln(stderr, "energybench:", err)
		return 2
	}
	if *out != "" {
		if err := report.Write(*out); err != nil {
			fmt.Fprintln(stderr, "energybench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "wrote %s (%d scenarios)\n", *out, len(report.Scenarios))
	}
	if *asJSON {
		data, err := reportJSON(report)
		if err != nil {
			fmt.Fprintln(stderr, "energybench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	}
	if *baseline == "" {
		return 0
	}

	base, err := benchkit.LoadReport(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "energybench:", err)
		return 2
	}
	// Gate apples against apples: the baseline may span more of the
	// registry (both tiers, all families) than this invocation ran.
	base, err = base.Subset(*pattern, *tier, famList)
	if err != nil {
		fmt.Fprintln(stderr, "energybench:", err)
		return 2
	}
	cmp, err := benchkit.Compare(base, report, *tolerance, *minMS)
	if err != nil {
		fmt.Fprintln(stderr, "energybench:", err)
		return 2
	}
	if *compareOut != "" {
		if err := writeJSONFile(*compareOut, cmp); err != nil {
			fmt.Fprintln(stderr, "energybench:", err)
			return 2
		}
	}
	printComparison(stdout, cmp)
	for _, note := range cmp.EnvMismatch {
		fmt.Fprintf(stderr, "energybench: note: environment differs from baseline — %s\n", note)
	}
	if !cmp.Pass {
		fmt.Fprintf(stderr, "energybench: FAIL — %d regression(s), %d missing scenario(s) at tolerance %.2g×\n",
			cmp.Regressions, cmp.Missing, cmp.Tolerance)
		return 1
	}
	fmt.Fprintf(stderr, "energybench: PASS — %d scenario(s) within %.2g× of baseline\n", len(cmp.Rows), cmp.Tolerance)
	return 0
}

// splitFamilies parses the -families flag into a clean list.
func splitFamilies(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// printComparison renders the per-scenario verdict table.
func printComparison(w io.Writer, cmp *benchkit.Comparison) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tBASE p50 (ms)\tCURRENT p50 (ms)\tRATIO\tSTATUS")
	for _, row := range cmp.Rows {
		switch row.Status {
		case benchkit.StatusMissing:
			fmt.Fprintf(tw, "%s\t%.3f\t—\t—\t%s\n", row.Scenario, row.BaseMS, row.Status)
		case benchkit.StatusNew:
			fmt.Fprintf(tw, "%s\t—\t%.3f\t—\t%s\n", row.Scenario, row.CurMS, row.Status)
		default:
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2f×\t%s\n", row.Scenario, row.BaseMS, row.CurMS, row.Ratio, row.Status)
		}
	}
	tw.Flush()
}
