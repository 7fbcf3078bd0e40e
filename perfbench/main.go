// Command perfbench is the repository benchmark: one closed-loop client on
// one keep-alive connection drives HTTP traffic against an in-process solve
// server built from the public constructors, and every response is
// checked. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload value-churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, replays the traced ops through each layer, and
// reports the per-layer metrics. The last line of standard output is one
// JSON object.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/linalg"
)

// gated marks the end-to-end metrics, the ones BENCHMARK.json bounds and
// an untraced run reports. The window's throughput, latency and CPU
// metrics follow the host's speed, which drifts by more than a tenth within
// an hour on a shared 2-vCPU host, so a traced run reports them with the
// per-layer metrics instead; an untraced run prints them too.
var gated = map[string]bool{"setup_s": true, "peak_rss_mib": true}

// Untimed steady-state window: it runs in slices of the workload's
// steadyItems items until two consecutive slices agree on throughput within
// steadyTol, for at least steadyMin slices and at most steadyMax. Counting
// slices in items, not seconds, gives the timed window the same cache
// contents on a fast host and a slow one.
const (
	steadyTol = 0.05
	steadyMin = 5
	steadyMax = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	fmt.Printf("# env gomaxprocs=%d nproc=%d clients=1 go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// server is one set-up instance of the system under test.
type server struct {
	w       *workload
	classes []string
	eng     *repro.Engine
	srv     *httptest.Server
	cl      *client
	cold    hist // latencies of the set-up solves
}

func (s *server) close() {
	s.cl.close()
	s.srv.Close()
}

// setup generates the inputs, starts a server and runs the serial warm-up
// that fills its caches.
func setup(name string, seed int64) (*server, error) {
	s := &server{w: workloads[name](seed), eng: repro.NewEngine(repro.EngineOptions{})}
	s.classes = sortedKeys(s.w.shares)
	s.srv = httptest.NewServer(repro.NewSolveHandler(s.eng, repro.SolveHTTPOptions{}))
	s.cl = newClient(s.srv.URL)
	s.cl.reset(s.classes, nil, func() bool { return false })
	for _, it := range s.w.warm {
		s.cl.run(it)
	}
	if t := s.cl.t; t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("set-up: %s", t.errs[0])
	}
	s.cold = s.cl.t.lat
	if s.cl.t.creates.n > 0 {
		s.cold = s.cl.t.creates
	}
	return s, nil
}

// setUps runs n set-ups in turn, each after a GC and after closing the
// one before, appends the CPU and wall time of each in seconds, and
// returns the last one, still open.
func setUps(name string, seed int64, n int, cpuTimes, wallTimes *[]float64) (*server, error) {
	var srv *server
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		t0, cpu0 := time.Now(), cpuTime()
		s, err := setup(name, seed)
		if err != nil {
			return nil, err
		}
		*cpuTimes = append(*cpuTimes, (cpuTime() - cpu0).Seconds())
		*wallTimes = append(*wallTimes, time.Since(t0).Seconds())
		srv = s
	}
	return srv, nil
}

// steady runs the workload's traffic untimed until throughput settles and
// returns the last slice's ops per second and the number of slices.
func (s *server) steady() (float64, int) {
	next := s.w.stream("steady")
	prev := 0.0
	never := func() bool { return false }
	for i := 1; ; i++ {
		start := time.Now()
		s.cl.reset(s.classes, nil, never)
		for k := 0; k < s.w.steadyItems; k++ {
			s.cl.run(next())
		}
		rate := float64(s.cl.t.ops) / time.Since(start).Seconds()
		if i >= steadyMax || i >= steadyMin && math.Abs(rate-prev) <= steadyTol*rate {
			return rate, i
		}
		prev = rate
	}
}

// window is what one timed window measured.
type window struct {
	t          *tally
	ops        []opRecord // traced window: every op, for the replay
	refs       []refCheck
	dur        time.Duration
	cpu        time.Duration     // process user+sys CPU
	eng        repro.EngineStats // counter deltas
	symbolic   uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	peakRSS    float64 // MiB
}

// measure runs the client closed-loop over the stream labelled label for d.
// rec is nil for an untraced window. Everything the window records into is
// allocated before the peak resident set is reset, and has a fixed size
// unless the window is traced.
func (s *server) measure(label string, d time.Duration, rec *recorder) (*window, error) {
	next := s.w.stream(label)
	s.cl.reset(s.classes, rec, nil)
	// Hand the memory the set-ups freed back to the kernel, so the peak
	// resident set is the window's own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	st0, sym0 := s.eng.Stats(), linalg.SymbolicAnalyses()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, cpu0 := time.Now(), cpuTime()
	end := start.Add(d)
	s.cl.done = func() bool { return !time.Now().Before(end) }
	for !s.cl.done() {
		s.cl.run(next())
	}
	w := &window{t: s.cl.t, dur: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	st1 := s.eng.Stats()
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	w.peakRSS = peak
	w.symbolic = linalg.SymbolicAnalyses() - sym0
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	w.eng = repro.EngineStats{
		Hits:            st1.Hits - st0.Hits,
		Misses:          st1.Misses - st0.Misses,
		Coalesced:       st1.Coalesced - st0.Coalesced,
		Shed:            st1.Shed - st0.Shed,
		Degraded:        st1.Degraded - st0.Degraded,
		StructureHits:   st1.StructureHits - st0.StructureHits,
		StructureMisses: st1.StructureMisses - st0.StructureMisses,
	}
	w.ops, w.refs = s.cl.ops, s.cl.refs
	return w, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-set tracking.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak resident set reset: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set since the last reset, in
// MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil || kb <= 0 {
				return 0, fmt.Errorf("peak resident set: unreadable line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak resident set: no VmHWM in /proc/self/status")
}

// calibrate times a fixed single-threaded CPU loop, the host reference:
// the median of three rounds of SHA-256 over 32 MiB, in ms.
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var times []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		for i := 0; i < 512; i++ {
			sum := sha256.Sum256(buf)
			buf[i] ^= sum[0]
		}
		times = append(times, float64(time.Since(start))/1e6)
	}
	return quantile(times, 0.5)
}

func runWorkload(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	wl := workloads[name](seed)
	fmt.Printf("# workload %s seed=%d request_digest=sha256:%s cost_signature=sha256:%x\n", name, seed, requestDigest(wl), sha256.Sum256([]byte(costSignature(wl))))
	// setup_s is the median over the set-ups of the process's CPU time,
	// user plus system, during each. Unlike wall time it leaves out the
	// time the hypervisor takes the vCPUs away, which on a shared host
	// moves a set-up by more than a tenth from one minute to the next. An
	// untraced run sets up about half the times before its window and the
	// rest after it, so the median spans the run, not one moment of the
	// host's drift; a traced run reports no setup_s and sets up only
	// before.
	var cpuTimes, wallTimes []float64
	srv, err := setUps(name, seed, wl.setups/2+1, &cpuTimes, &wallTimes)
	if err != nil {
		return nil, err
	}
	defer func() { srv.close() }()

	steadyRate, slices := srv.steady()
	calib := []float64{calibrate()}
	base, err := srv.measure("timed", d, nil)
	if err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	if !traced {
		srv.close()
		last, err := setUps(name, seed, wl.setups-len(cpuTimes), &cpuTimes, &wallTimes)
		if err != nil {
			return nil, err
		}
		srv = last
	}
	fmt.Printf("# setup cpu_seconds=%.4f wall_seconds=%.4f\n", cpuTimes, wallTimes)
	opsPerS := float64(base.t.ops) / base.dur.Seconds()
	l := &base.t.lat
	all := map[string]metric{
		"setup_s":        {quantile(cpuTimes, 0.5), "s"},
		"ops_per_s":      {opsPerS, "1/s"},
		"latency_p50_ms": {l.quantileMs(0.5), "ms"},
		"latency_p99_ms": {l.quantileMs(0.99), "ms"},
		"cpu_ms_per_op":  {ratio(float64(base.cpu)/1e6, float64(base.t.ops)), "ms"},
		"peak_rss_mib":   {base.peakRSS, "MiB"},
	}
	fmt.Printf("# steady window slices=%d ops_per_s=%.1f ratio_to_timed=%.4f\n", slices, steadyRate, ratio(steadyRate, opsPerS))
	fmt.Printf("# window untraced seconds=%.3f ops=%d latency_samples=%d beyond_p99=%d\n", base.dur.Seconds(), base.t.ops, l.n, l.n-int(math.Ceil(0.99*float64(l.n))))
	fmt.Printf("# latency_ms p90=%.4g p99=%.4g p99.9=%.4g max=%.4g\n", l.quantileMs(0.9), l.quantileMs(0.99), l.quantileMs(0.999), l.quantileMs(1))
	fmt.Printf("# host calib_ms before=%.3f after=%.3f\n", calib[0], calib[1])
	printClasses(srv.w, base.t)

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	for k, v := range all {
		if gated[k] != traced {
			res.Metrics[k] = v
		}
	}
	windows := []*window{base}
	if !traced {
		printMetrics(all, "")
	} else {
		// The traced window and its replay take d/2 each, so the traced
		// run takes about twice as long as an end-to-end run.
		d /= 2
		rec := newRecorder()
		tw, err := srv.measure("traced", d, rec)
		if err != nil {
			return nil, err
		}
		windows = append(windows, tw)
		rp := newReplayer(rec)
		if err := rp.warm(srv.w.warm); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
		if err := rp.replay(tw.ops, d); err != nil {
			return nil, err
		}
		fmt.Printf("# window traced seconds=%.3f ops=%d replayed=%d spans=%d\n", tw.dur.Seconds(), tw.t.ops, rp.ops, rec.len())
		for k, v := range layerMetrics(srv, base, tw, rp, quantile(calib, 0.5)) {
			res.Metrics[k] = v
		}
		if err := writeSpans(rec, name, seed); err != nil {
			return nil, err
		}
		printMetrics(res.Metrics, "")
	}

	var refs []refCheck
	for _, w := range windows {
		res.Attempted += w.t.ops
		res.Failed += w.t.failed
		for _, e := range w.t.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, e)
		}
		refs = append(refs, w.refs...)
	}
	// The library-path re-solves run after the windows, so they cost no
	// measured time.
	res.Failed += checkRefs(name, refs)
	for _, err := range assertions(srv.w, base) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: assertion failed: %v\n", name, err)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	fmt.Printf("# ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res, nil
}

// printClasses prints each op class's designed and measured share and its
// latency quantiles.
func printClasses(w *workload, t *tally) {
	for _, c := range sortedKeys(w.shares) {
		ct := t.classes[c]
		fmt.Printf("# class %s designed=%.4f measured=%.4f p50_ms=%.4g p99_ms=%.4g\n",
			c, w.shares[c], ratio(float64(ct.ops), float64(t.ops-t.failed)), ct.lat.quantileMs(0.5), ct.lat.quantileMs(0.99))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(m map[string]metric, note string) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("metric %s %.6g %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
}

// writeSpans stores the traced run's spans under .bench_build.
func writeSpans(rec *recorder, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}

// quantile interpolates linearly between order statistics of xs (any
// order is accepted; xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkRefs re-solves the sampled answers single-threaded through the
// library path and returns how many disagree.
func checkRefs(name string, refs []refCheck) int {
	const maxChecks = 32
	failed := 0
	seen := make(map[string]bool)
	checked := 0
	for _, rc := range refs {
		key := string(rc.inst.encode(nil))
		if seen[key] || checked == maxChecks {
			continue
		}
		seen[key] = true
		checked++
		opt, err := librarySolve(rc.inst)
		switch {
		case err != nil:
			err = fmt.Errorf("library solve: %w", err)
		case relDiff(rc.energy, opt) > refTol:
			err = fmt.Errorf("server energy %v, library path %v", rc.energy, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: reference check (%s, %d tasks): %v\n", name, rc.inst.model.kind, rc.inst.g.n(), err)
			failed++
		}
	}
	fmt.Printf("# reference re-solves=%d failed=%d\n", checked, failed)
	return failed
}

// librarySolve solves an instance through SolveAuto on one worker.
func librarySolve(in instance) (float64, error) {
	g := repro.NewGraph()
	for _, w := range in.g.w {
		g.AddTask("", w)
	}
	for _, e := range in.g.edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return 0, err
		}
	}
	p, err := repro.NewProblem(g, in.deadline)
	if err != nil {
		return 0, err
	}
	var m repro.Model
	switch ms := in.model; ms.kind {
	case "continuous":
		m, err = repro.NewContinuous(ms.smax)
	case "vdd-hopping":
		m, err = repro.NewVddHopping(ms.modes)
	case "discrete":
		m, err = repro.NewDiscrete(ms.modes)
	case "incremental":
		m, err = repro.NewIncremental(ms.smin, ms.smax, ms.delta)
	default:
		err = fmt.Errorf("unknown model %q", ms.kind)
	}
	if err != nil {
		return 0, err
	}
	sol, err := p.SolveAuto(m, repro.SolvePlannedOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	return sol.Energy, nil
}
