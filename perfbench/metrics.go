package main

import (
	"fmt"
	"math"
	"sort"
)

// layerMetrics derives the per-layer metrics. Counters and client-side
// sizes come from the untraced window base, which carries the same
// traffic as an end-to-end run; layer times come from the replay of the
// traced window tw.
func layerMetrics(srv *server, base, tw *window, rp *replayer, calibMs float64) map[string]metric {
	out := make(map[string]metric)
	put := func(k string, v float64, unit string) { out[k] = metric{Value: v, Unit: unit} }
	self, setupSelf := rp.rec.selfByName(), rp.setup.selfByName()
	// A layer's time is the median self time of its spans over the window's
	// ops; a layer the window never reached is timed on the set-up solves.
	p50 := func(name string) float64 {
		if xs := self[name]; len(xs) > 0 {
			return quantile(xs, 0.5)
		}
		return quantile(setupSelf[name], 0.5)
	}
	t, e := base.t, base.eng
	ops := float64(t.ops)

	// service and graph: the wire and the instance-cache hit path
	put("service.decode_us_p50", p50("service.decode"), "us")
	put("service.encode_us_p50", p50("service.encode"), "us")
	decode := 0.0
	for _, v := range self["service.decode"] {
		decode += v
	}
	put("service.decode_share", ratio(decode, float64(rp.opTime)/1e3), "ratio")
	put("service.request_kib", ratio(float64(t.reqBytes)/1024, ops), "KiB")
	put("service.response_kib", ratio(float64(t.respBytes)/1024, ops), "KiB")
	put("service.engine_hit_us_p50", p50("service.engine_hit"), "us")
	put("graph.fingerprint_us_p50", p50("graph.fingerprint"), "us")

	// service engine miss and plan
	put("service.engine_miss_us_p50", p50("service.engine_miss"), "us")
	put("graph.structural_fingerprint_us_p50", p50("graph.structural_fingerprint"), "us")
	put("plan.analyze_us_p50", p50("plan.analyze"), "us")
	put("plan.execute_us_p50", p50("plan.execute"), "us")
	put("plan.components_per_op", ratio(float64(t.components), float64(t.planned)), "count")
	put("plan.structure_hit_ratio", ratio(float64(e.StructureHits), float64(e.StructureHits+e.StructureMisses)), "ratio")

	// core, convex, lp and linalg
	put("core.verify_us_p50", p50("core.verify"), "us")
	newton, pivots, nodes := 0, 0, 0
	for _, s := range rp.stats {
		newton += s.Newton
		pivots += s.Pivots
		nodes += s.Nodes
	}
	solves := float64(len(rp.stats))
	put("core.bb_nodes_per_solve", ratio(float64(nodes), solves), "count")
	put("convex.newton_per_solve", ratio(float64(newton), solves), "count")
	put("lp.pivots_per_solve", ratio(float64(pivots), solves), "count")
	put("linalg.symbolic_analyses_per_op", ratio(float64(base.symbolic), ops), "count")
	put("setup.cold_solve_ms_p50", srv.cold.quantileMs(0.5), "ms")

	// pipeline: the stream path
	put("pipeline.first_event_p50_ms", t.first.quantileMs(0.5), "ms")
	put("pipeline.first_to_last_ms_p50", t.tail.quantileMs(0.5), "ms")
	put("pipeline.events_per_stream", ratio(float64(t.streamEvents), float64(t.streams)), "count")

	// reclaim
	rc := t.reclaim
	put("reclaim.event_p50_ms", t.events.quantileMs(0.5), "ms")
	put("reclaim.event_p99_ms", t.events.quantileMs(0.99), "ms")
	put("reclaim.create_ms_p50", t.creates.quantileMs(0.5), "ms")
	put("reclaim.apply_event_us_p50", p50("reclaim.apply_event"), "us")
	put("reclaim.replan_ratio", ratio(float64(rc.replans), float64(rc.events)), "ratio")
	put("reclaim.components_reused_ratio", ratio(float64(rc.reused), float64(rc.reused+rc.resolved)), "ratio")
	put("reclaim.warm_seeded_ratio", ratio(float64(rc.warmSeeded), float64(rc.resolved)), "ratio")

	// go: the runtime, process-wide, the client included
	put("go.allocs_per_op", ratio(float64(base.mallocs), ops), "count")
	put("go.bytes_per_op", ratio(float64(base.allocBytes), ops), "B")
	put("go.gc_cycles_per_op", ratio(float64(base.gcCycles), ops), "count")
	put("go.gc_pause_ms", float64(base.gcPauseNs)/1e6, "ms")

	// diagnostics
	put("trace.overhead_ratio", ratio(tw.t.lat.quantileMs(0.5), t.lat.quantileMs(0.5)), "ratio")
	put("host.calib_ms", calibMs, "ms")
	return out
}

// Placement margins: every boundary between op classes, as a cumulative
// share of ops, keeps at least this far from the quantiles it could move.
const (
	p50Margin = 0.1
	p99Margin = 0.02
	mixTol    = 0.03 // measured class share against designed, absolute
)

// assertions returns every way the window failed to exercise the workload
// as designed.
func assertions(w *workload, win *window) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	t, e := win.t, win.eng
	done := t.ops - t.failed

	if beyond := t.lat.n - int(math.Ceil(0.99*float64(t.lat.n))); beyond < 10 {
		fail("%d latency samples beyond p99, want at least 10", beyond)
	}
	if e.Shed != 0 || e.Degraded != 0 || e.Coalesced != 0 {
		fail("shed %d, degraded %d, coalesced %d, want all 0", e.Shed, e.Degraded, e.Coalesced)
	}

	// Op-class mix and the placement of its boundaries. Classes are ordered
	// by measured median latency; the cumulative share at each boundary is
	// where the latency distribution changes class.
	type cls struct {
		name  string
		share float64
		p50   float64
	}
	var cs []cls
	for _, c := range sortedKeys(w.shares) {
		ct := t.classes[c]
		share := ratio(float64(ct.ops), float64(done))
		if math.Abs(share-w.shares[c]) > mixTol {
			fail("class %s has share %.4f, designed %.4f", c, share, w.shares[c])
		}
		cs = append(cs, cls{c, share, ct.lat.quantileMs(0.5)})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].p50 < cs[j].p50 })
	cum := 0.0
	for _, c := range cs[:len(cs)-1] {
		cum += c.share
		if math.Abs(cum-0.5) < p50Margin || math.Abs(cum-0.99) < p99Margin {
			fail("class boundary after %s at cumulative share %.4f is within reach of p50 or p99", c.name, cum)
		}
	}

	hits := ratio(float64(e.Hits), float64(e.Hits+e.Misses))
	structHits := ratio(float64(e.StructureHits), float64(e.StructureHits+e.StructureMisses))
	switch w.name {
	case "hot-repeat":
		if hits < 0.99 {
			fail("instance hit ratio %.4f, want at least 0.99", hits)
		}
	case "value-churn":
		if e.Hits != 0 || e.StructureMisses != 0 || e.StructureHits == 0 {
			fail("instance hits %d, structure hit ratio %.4f, want 0 and 1", e.Hits, structHits)
		}
	case "reclaim-sessions":
		want := replanShare()
		got := ratio(float64(t.reclaim.replans), float64(t.reclaim.events))
		if math.Abs(got-want) > 0.15*want {
			fail("replan ratio %.4f outside the designed %.4f ± 15%%", got, want)
		}
	}
	return errs
}
