package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
)

// cheapScenario runs in microseconds (Theorem 1 closed form), so the CLI
// tests stay fast.
const cheapScenario = "chain-256-continuous-direct"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsRegistry(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{cheapScenario, "layered-240-continuous-service-hit", "multi-4-continuous-planner",
		"chain-2048-continuous-kernel", "TIER", benchkit.TierLarge} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

// TestTierAndFamilyFlagsSliceTheRegistry: the default tier must exclude
// the large scenarios, -tier large must select them, and -families must
// narrow any run. (Selection errors only — nothing is measured: the
// patterns below match zero scenarios within the filtered slice.)
func TestTierAndFamilyFlagsSliceTheRegistry(t *testing.T) {
	// A large-tier name is invisible from the default tier.
	code, _, stderr := runCLI(t, "-run", "^chain-2048-continuous-kernel$")
	if code != 2 || !strings.Contains(stderr, "no scenario matches") {
		t.Fatalf("large scenario leaked into the default tier: exit %d, %q", code, stderr)
	}
	// A default-tier name is invisible from the large tier.
	if code, _, _ := runCLI(t, "-tier", "large", "-run", "^"+cheapScenario+"$"); code != 2 {
		t.Fatalf("default scenario leaked into -tier large: exit %d", code)
	}
	// The family filter excludes everything not listed.
	if code, _, _ := runCLI(t, "-families", "lu,fft", "-run", "^"+cheapScenario+"$"); code != 2 {
		t.Fatalf("family filter did not exclude a chain scenario: exit %d", code)
	}
	// Unknown tier is a usage error.
	if code, _, _ := runCLI(t, "-tier", "bogus", "-run", ".*"); code != 2 {
		t.Fatalf("unknown tier accepted: exit %d", code)
	}
}

// TestBaselineSubsetKeepsOneTierGatesClean: gating a default-tier run
// against a baseline that also carries large-tier rows must not read
// the large rows as missing coverage.
func TestBaselineSubsetKeepsOneTierGatesClean(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "current.json")
	if code, _, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-out", out); code != 0 {
		t.Fatalf("measurement run failed: %s", stderr)
	}
	report, err := benchkit.LoadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	report.Scenarios = append(report.Scenarios, benchkit.Result{
		Scenario: "layered-1024-continuous-direct", Family: "layered", Tier: benchkit.TierLarge, P50MS: 100,
	})
	baseline := filepath.Join(dir, "baseline.json")
	if err := report.Write(baseline); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-baseline", baseline)
	if code != 0 {
		t.Fatalf("two-tier baseline failed a one-tier gate: exit %d\n%s\n%s", code, stdout, stderr)
	}
	if strings.Contains(stdout, benchkit.StatusMissing) {
		t.Fatalf("large-tier baseline row read as missing:\n%s", stdout)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatal("no arguments must be a usage error")
	}
	if code, _, stderr := runCLI(t, "-run", "no-such-scenario-xyz"); code != 2 || !strings.Contains(stderr, "no scenario matches") {
		t.Fatalf("unmatched pattern: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runCLI(t, "-run", "("); code != 2 {
		t.Fatal("bad regexp must be a usage error")
	}
}

func TestRunWritesReportAndPassesAgainstItself(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "current.json")
	code, _, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	report, err := benchkit.LoadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if report.Find(cheapScenario) == nil {
		t.Fatalf("report missing %s", cheapScenario)
	}
	// A run gated against its own numbers passes: the default noise floor
	// absorbs microsecond jitter between the two measurements.
	code, stdout, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-baseline", out)
	if code != 0 {
		t.Fatalf("self-comparison failed: exit %d\n%s\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, cheapScenario) {
		t.Fatalf("comparison table missing the scenario:\n%s", stdout)
	}
}

// TestSyntheticRegressionFailsTheGate is the acceptance check: a baseline
// doctored to claim the scenario once ran ~10⁶× faster must make the CLI
// exit non-zero (with the noise floor disabled so the ratio is exposed).
func TestSyntheticRegressionFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "current.json")
	if code, _, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-out", out); code != 0 {
		t.Fatalf("measurement run failed: %s", stderr)
	}
	report, err := benchkit.LoadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Scenarios {
		report.Scenarios[i].P50MS /= 1e6 // inject: the past was impossibly fast
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := report.Write(baseline); err != nil {
		t.Fatal(err)
	}

	compareOut := filepath.Join(dir, "compare.json")
	code, stdout, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2",
		"-baseline", baseline, "-minms", "1e-12", "-compare-out", compareOut)
	if code != 1 {
		t.Fatalf("synthetic regression exited %d, want 1\n%s\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, benchkit.StatusRegressed) || !strings.Contains(stderr, "FAIL") {
		t.Fatalf("regression not reported:\n%s\n%s", stdout, stderr)
	}
	if _, err := benchkit.ParseReport(nil); err == nil {
		t.Fatal("sanity: ParseReport(nil) should fail")
	}
}

// TestMissingScenarioFailsTheGate: a baseline scenario inside the
// selected slice that the current run no longer covers must fail the
// comparison. The retired row matches the -run pattern (an unanchored
// prefix) so the baseline subset keeps it; rows outside the selection
// are the other tier's business (see the subset test above).
func TestMissingScenarioFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "current.json")
	if code, _, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "2", "-out", out); code != 0 {
		t.Fatalf("measurement run failed: %s", stderr)
	}
	report, err := benchkit.LoadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	report.Scenarios = append(report.Scenarios, benchkit.Result{
		Scenario: cheapScenario + "-retired", Family: "chain", P50MS: 5,
	})
	baseline := filepath.Join(dir, "baseline.json")
	if err := report.Write(baseline); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(t, "-quiet", "-run", cheapScenario, "-reps", "2", "-baseline", baseline)
	if code != 1 {
		t.Fatalf("missing scenario exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, benchkit.StatusMissing) {
		t.Fatalf("missing status not reported:\n%s", stdout)
	}
}

// TestMalformedBaselineIsAnError (exit 2, not a silent pass).
func TestMalformedBaselineIsAnError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeJSONFile(bad, map[string]any{"schema": "other"}); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-quiet", "-run", "^"+cheapScenario+"$", "-reps", "1", "-baseline", bad)
	if code != 2 || !strings.Contains(stderr, "schema") {
		t.Fatalf("malformed baseline: exit %d, stderr %q", code, stderr)
	}
}

// TestProfileWritesPprofPerScenario: -profile DIR leaves a non-empty CPU
// and alloc profile for every scenario it ran.
func TestProfileWritesPprofPerScenario(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	if code, _, stderr := runCLI(t, "-quiet", "-reps", "1", "-run", "^"+cheapScenario+"$", "-profile", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, kind := range []string{"cpu", "allocs"} {
		path := filepath.Join(dir, cheapScenario+"."+kind+".pprof")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}
