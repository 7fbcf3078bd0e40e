package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// Two seeds send different requests at the same cost: the same families,
// task, edge and request-byte counts per pool slot, and the same op-class
// mix. One seed always sends the same requests.
func TestSeedChangesValuesNotCost(t *testing.T) {
	for _, name := range workloadNames {
		mk := workloads[name]
		a, b := mk(7), mk(8)
		if da, db := requestDigest(a), requestDigest(b); da == db {
			t.Errorf("%s: seeds 7 and 8 give the same request digest %s", name, da)
		}
		if sa, sb := costSignature(a), costSignature(b); sa != sb {
			t.Errorf("%s: seeds 7 and 8 differ in cost:\n%s\nvs\n%s", name, sa, sb)
		}
		if da, dc := requestDigest(a), requestDigest(mk(7)); da != dc {
			t.Errorf("%s: seed 7 gives digests %s and %s", name, da, dc)
		}
	}
}

// Every request of a slot has the same size, whatever its values.
func TestRequestSizeIsFixedPerSlot(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name](3)
		sizes := map[string]int{}
		next := w.stream("timed")
		for i := 0; i < 300; i++ {
			it := next()
			key := fmt.Sprintf("%s/%s/%d", it.inst.family, it.inst.model.kind, it.inst.g.n())
			if n, ok := sizes[key]; ok && n != len(it.body) {
				t.Fatalf("%s: %s bodies of %d and %d bytes", name, key, n, len(it.body))
			}
			sizes[key] = len(it.body)
		}
	}
}

// The designed class shares sum to 1.
func TestDesignedSharesSumToOne(t *testing.T) {
	for _, name := range workloadNames {
		sum := 0.0
		for _, s := range workloads[name](1).shares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: class shares sum to %v", name, sum)
		}
	}
}

func TestDeckKeepsTheMixOfEveryRound(t *testing.T) {
	d := newDeck(newRand(3), []float64{3, 1}, 8)
	counts := map[int]int{}
	for i := 0; i < 80; i++ {
		counts[d.next()]++
	}
	if counts[0] != 60 || counts[1] != 20 {
		t.Fatalf("80 draws dealt %v, want 60 and 20", counts)
	}
}

// Every family draws exactly its edge count, with every edge pointing
// upward and none repeated, whatever the structure seed.
func TestShapesDrawExactEdgeCounts(t *testing.T) {
	shapes := []shape{
		{family: "chain", n: 10}, {family: "fork", n: 12}, {family: "outtree", n: 30},
		{family: "sp", n: 16, m: 17}, {family: "sp", n: 24, m: 28},
		{family: "layered", n: 48, width: 6, deg: 2}, {family: "kin", n: 50, deg: 3},
		{family: "mixed", n: 96},
	}
	for _, s := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			g := s.structure(newRand(seed))
			if g.n() != s.n || len(g.edges) != s.edges() {
				t.Errorf("%s seed %d: %d tasks and %d edges, want %d and %d", s.family, seed, g.n(), len(g.edges), s.n, s.edges())
			}
			seen := map[[2]int]bool{}
			for _, e := range g.edges {
				if e[0] >= e[1] || e[1] >= g.n() || seen[e] {
					t.Errorf("%s seed %d: bad or repeated edge %v", s.family, seed, e)
				}
				seen[e] = true
			}
		}
	}
}

// Reclaim lifecycles deviate in exactly reclaimDeviations events, each the
// last of its batch and with a successor, so each re-plans.
func TestLifecyclesDeviateByDesign(t *testing.T) {
	next := reclaimSessions(5).stream("timed")
	for i := 0; i < 50; i++ {
		it := next()
		l, succ := it.life, it.inst.g.succs()
		if l.events%l.batch != 0 || l.events/l.batch != reclaimBatches {
			t.Fatalf("%d events in batches of %d", l.events, l.batch)
		}
		dev := 0
		for task, f := range l.factors {
			if f == 1 {
				continue
			}
			dev++
			if task >= l.events || task%l.batch != l.batch-1 || len(succ[task]) == 0 || f >= 1 {
				t.Errorf("task %d deviates by %v: not the last of a batch with successors", task, f)
			}
		}
		if dev != reclaimDeviations {
			t.Errorf("%d deviations, want %d", dev, reclaimDeviations)
		}
	}
}

// Every seed's set-up runs the same items, values included; only
// hot-repeat's order follows the seed.
func TestSetUpIsTheSameForEverySeed(t *testing.T) {
	for _, name := range workloadNames {
		items := func(seed int64) []string {
			var out []string
			for _, it := range workloads[name](seed).warm {
				out = append(out, string(it.digestBytes()))
			}
			sort.Strings(out)
			return out
		}
		if !slices.Equal(items(7), items(8)) {
			t.Errorf("%s: seeds 7 and 8 set up different items", name)
		}
	}
}
