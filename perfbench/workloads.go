package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// item is one unit of client work drawn from a workload's seeded stream:
// a single solve, plain or streamed, or a whole session lifecycle.
type item struct {
	class  string // the op class of a solve; sessions class each op
	inst   instance
	body   []byte
	stream bool // POST /v1/solve/stream instead of /v1/solve
	ref    bool // re-solve through the library path after the run
	life   *lifecycle
}

// lifecycle is the plan of one reclaim session: which tasks complete, in
// which batches, and by how much each runs short of its current plan.
type lifecycle struct {
	events  int       // completions reported, a prefix in task order
	batch   int       // completions per events POST
	factors []float64 // per task: actual over currently planned duration
}

// digestBytes is the canonical byte form of an item for the request-stream
// digest: everything the client derives its requests from.
func (it item) digestBytes() []byte {
	b := append([]byte(it.class+"|"), it.body...)
	if it.stream {
		b = append(b, "|stream"...)
	}
	if it.ref {
		b = append(b, "|ref"...)
	}
	if l := it.life; l != nil {
		b = append(b, "|session"...)
		b = strconv.AppendInt(b, int64(l.events), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(l.batch), 10)
		for _, f := range l.factors {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// group is a set of pool slots of one shape and one op class. Every slot of
// a group has the same share of the traffic.
type group struct {
	class  string
	shape  shape
	models []modelSpec // drawn in turn, one per op
	slots  int
	share  float64 // of all ops, summed over the group's slots
	stream bool    // the group's ops go through the stream endpoint
}

// slot is one pool entry: a structure and the group it belongs to.
type slot struct {
	g  *dag
	gr *group
}

// pool lays the groups out as slots. Each group's structures come from a
// catalogue fixed per workload, so every seed solves the same structures.
func pool(name string, groups []group) ([]slot, []float64) {
	var slots []slot
	var weights []float64
	for gi := range groups {
		gr := &groups[gi]
		label := name + "/" + strconv.Itoa(gi)
		for j := 0; j < gr.slots; j++ {
			slots = append(slots, slot{g: gr.shape.structure(newRand(seedFor(0, label, j))), gr: gr})
			weights = append(weights, gr.share/float64(gr.slots))
		}
	}
	return slots, weights
}

// workload is one traffic mix. Every random choice in its streams comes
// from the seed; its set-up items do not depend on it.
type workload struct {
	name  string
	slots []slot
	// warm lists the items run once, serially, during set-up: the cold
	// path that fills the caches the windows then read. They are the same
	// for every seed, so that setup_s does not follow the seed: the set-up
	// solves' interior-point Newton counts follow their values.
	warm []item
	// stream returns the item stream labelled label: "steady" for the
	// untimed window that runs until throughput settles, "timed" for the
	// measured one. Each label has its own generator, so the timed window
	// sends the same items whatever the untimed window consumed.
	stream func(label string) func() item
	// shares is the designed share of ops per op class.
	shares map[string]float64
	// steadyItems is the length of a steady-state slice in items, about a
	// second of traffic on a 2-vCPU host.
	steadyItems int
	// setups is how many times a run sets up; setup_s is the median.
	setups int
}

// refEvery is the share, one in refEvery, of items whose answer is
// re-solved through the library path after the run.
const refEvery = 24

// zipf is the popularity weight of a 0-based rank.
func zipf(rank int) float64 { return math.Pow(float64(rank+1), -1.1) }

// deck deals indices in proportion to weights. Every round of draws holds
// each index its share of the round, in an order shuffled by the seed, so
// draws follow the weights while two seeds differ in order but not in mix:
// the run-to-run spread then measures the system, not the sampling.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, weights []float64, round int) *deck {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	d := &deck{rng: rng}
	for i, w := range weights {
		for k := max(1, int(math.Round(float64(round)*w/total))); k > 0; k-- {
			d.cards = append(d.cards, i)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// oneIn returns a deck whose card 0 comes up once in every n draws.
func oneIn(rng *rand.Rand, n int) *deck {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return newDeck(rng, w, n)
}

// classShares sums the designed share of each op class over the slots.
func classShares(slots []slot, weights []float64) map[string]float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make(map[string]float64)
	for i, s := range slots {
		out[s.gr.class] += weights[i] / total
	}
	return out
}

// hotRepeat: byte-identical solve bodies drawn zipf-popular from a small
// pool of large general DAGs of one size. After set-up every request is an
// instance-cache hit. The pool's instances, values included, are set-up
// items, so they are the same for every seed; the seed deals them their
// popularity ranks and sets the request order.
func hotRepeat(seed int64) *workload {
	const size = 8
	groups := []group{{class: "hit", shape: shape{family: "layered", n: 240, width: 12, deg: 3}, models: []modelSpec{continuous}, slots: size, share: 1}}
	slots, _ := pool("hot-repeat", groups)
	weights := make([]float64, len(slots))
	items := make([]item, len(slots))
	for i, s := range slots {
		weights[i] = zipf(i)
		rng := newRand(seedFor(0, "hot-repeat/values", i))
		in := newInstance(s.g.withWeights(rng), s.gr.shape.family, continuous, 1.3+0.4*rng.Float64())
		items[i] = item{class: "hit", inst: in, body: in.encode(nil)}
	}
	newRand(seedFor(seed, "hot-repeat/ranks", 0)).Shuffle(size, func(i, j int) {
		slots[i], slots[j] = slots[j], slots[i]
		items[i], items[j] = items[j], items[i]
	})
	return &workload{
		name:        "hot-repeat",
		slots:       slots,
		setups:      7,
		steadyItems: 600,
		warm:        items,
		shares:      map[string]float64{"hit": 1},
		stream: func(label string) func() item {
			rng := newRand(seedFor(seed, "hot-repeat/"+label, 0))
			pick, ref := newDeck(rng, weights, 64), oneIn(rng, refEvery)
			return func() item {
				it := items[pick.next()]
				it.ref = ref.next() == 0
				return it
			}
		},
	}
}

// churnGroups is value-churn's pool: a fixed set of shapes under all four
// models, every op with fresh weights and a fresh deadline. The op classes
// are cost tiers, about 0.5, 1, 3 and 10 ms per op on a 2-vCPU host:
// closed forms and the series-parallel algebra; the Vdd-Hopping LP, the
// discrete Pareto DP and branch-and-bound on small shapes; the Theorem 5
// rounding and the LP on a layered DAG; the interior point on layered
// DAGs, plain and, in one op of four, streamed as multi-component
// instances. The shares keep every tier boundary clear of the median and
// the 99th percentile.
var churnGroups = []group{
	{class: "closed-form", shape: shape{family: "chain", n: 64}, models: []modelSpec{continuous}, slots: 1, share: 0.09},
	{class: "closed-form", shape: shape{family: "fork", n: 32}, models: []modelSpec{continuous}, slots: 1, share: 0.09},
	{class: "closed-form", shape: shape{family: "sp", n: 24, m: 28}, models: []modelSpec{continuous}, slots: 4, share: 0.09},
	{class: "closed-form", shape: shape{family: "outtree", n: 24}, models: []modelSpec{continuous}, slots: 4, share: 0.09},
	{class: "small-numeric", shape: shape{family: "sp", n: 16, m: 17}, models: []modelSpec{vdd4, discrete4}, slots: 4, share: 0.13},
	{class: "small-numeric", shape: shape{family: "outtree", n: 16}, models: []modelSpec{vdd4, discrete4}, slots: 4, share: 0.10},
	{class: "small-numeric", shape: shape{family: "kin", n: 10, deg: 2}, models: []modelSpec{discrete4}, slots: 4, share: 0.03},
	{class: "medium", shape: shape{family: "sp", n: 16, m: 17}, models: []modelSpec{incremental}, slots: 4, share: 0.035},
	{class: "medium", shape: shape{family: "outtree", n: 16}, models: []modelSpec{incremental}, slots: 4, share: 0.035},
	{class: "medium", shape: shape{family: "layered", n: 32, width: 4, deg: 2}, models: []modelSpec{vdd4}, slots: 4, share: 0.03},
	{class: "heavy", shape: shape{family: "layered", n: 32, width: 4, deg: 2}, models: []modelSpec{continuous}, slots: 4, share: 0.03},
	{class: "heavy", shape: shape{family: "mixed", n: 96}, models: []modelSpec{continuous}, slots: 4, share: 0.25, stream: true},
}

// valueChurn: a fixed pool of shapes, all compiled during set-up, re-sent
// with fresh weights and deadlines. The instance cache never hits and the
// structure cache always does.
func valueChurn(seed int64) *workload {
	slots, weights := pool("value-churn", churnGroups)
	draw := func(rng *rand.Rand, s slot, m modelSpec) item {
		in := newInstance(s.g.withWeights(rng), s.gr.shape.family, m, 1.3+0.6*rng.Float64())
		return item{class: s.gr.class, inst: in, body: in.encode(nil), stream: s.gr.stream}
	}
	// Set-up solves every slot under each of its models, plainly and
	// streamed, so every structure and kernel is compiled before the
	// windows open.
	rng := newRand(seedFor(0, "value-churn/warm", 0))
	var warm []item
	for _, s := range slots {
		for _, m := range s.gr.models {
			it := draw(rng, s, m)
			warm = append(warm, it)
			it = draw(rng, s, m)
			it.stream = !it.stream
			warm = append(warm, it)
		}
	}
	return &workload{
		name:        "value-churn",
		slots:       slots,
		setups:      25,
		steadyItems: 240,
		warm:        warm,
		shares:      classShares(slots, weights),
		stream: func(label string) func() item {
			rng := newRand(seedFor(seed, "value-churn/"+label, 0))
			pick, ref := newDeck(rng, weights, 256), oneIn(rng, refEvery)
			turn := make([]int, len(slots))
			return func() item {
				i := pick.next()
				s := slots[i]
				m := s.gr.models[turn[i]%len(s.gr.models)]
				turn[i]++
				it := draw(rng, s, m)
				it.ref = ref.next() == 0
				return it
			}
		},
	}
}

// reclaimGroups is reclaim-sessions' pool of mid-size continuous and
// 12-mode Vdd-Hopping instances.
var reclaimGroups = []group{
	{class: "session", shape: shape{family: "mixed", n: 96}, models: []modelSpec{continuous}, slots: 4, share: 0.3},
	{class: "session", shape: shape{family: "layered", n: 48, width: 6, deg: 2}, models: []modelSpec{continuous}, slots: 4, share: 0.25},
	{class: "session", shape: shape{family: "sp", n: 24, m: 28}, models: []modelSpec{vdd12}, slots: 4, share: 0.25},
	{class: "session", shape: shape{family: "layered", n: 24, width: 4, deg: 2}, models: []modelSpec{vdd12}, slots: 4, share: 0.2},
}

// Session lifecycle geometry: completions are reported for the first
// three quarters of the tasks in reclaimBatches equal batches, and exactly
// reclaimDeviations batches end with a task that finishes early.
const (
	reclaimBatches    = 6
	reclaimDeviations = 2
)

// reclaimSessions: back-to-back session lifecycles. Each reports
// completions in task order; exactly reclaimDeviations of its batches end
// with a task that runs short of its plan and has successors, so exactly
// that many events re-plan, and the client fetches the new schedule after
// each. Every other completion is on its current plan.
func reclaimSessions(seed int64) *workload {
	slots, weights := pool("reclaim-sessions", reclaimGroups)
	lifecycleOf := func(rng *rand.Rand, s slot, ref bool) item {
		in := newInstance(s.g.withWeights(rng), s.gr.shape.family, s.gr.models[0], 1.5+0.5*rng.Float64())
		n := in.g.n()
		l := &lifecycle{events: n * 3 / 4, factors: make([]float64, n)}
		l.batch = l.events / reclaimBatches
		succ := in.g.succs()
		// Candidates: the last task of a full batch that has a successor.
		// Successors have higher IDs, so none has completed yet.
		var cands []int
		for end := l.batch - 1; end < l.events; end += l.batch {
			if len(succ[end]) > 0 {
				cands = append(cands, end)
			}
		}
		if len(cands) < reclaimDeviations {
			panic("perfbench: reclaim shape has too few deviation candidates")
		}
		for i := range l.factors {
			l.factors[i] = 1
		}
		for _, k := range rng.Perm(len(cands))[:reclaimDeviations] {
			// Early, never late: every residual stays feasible.
			l.factors[cands[k]] = 0.6 + 0.3*rng.Float64()
		}
		return item{class: "session", inst: in, body: in.encode(nil), ref: ref, life: l}
	}
	rng := newRand(seedFor(0, "reclaim-sessions/warm", 0))
	warm := make([]item, len(slots))
	for i, s := range slots {
		warm[i] = lifecycleOf(rng, s, false)
	}
	return &workload{
		name:        "reclaim-sessions",
		slots:       slots,
		setups:      19,
		steadyItems: 36,
		warm:        warm,
		shares:      reclaimShares(),
		stream: func(label string) func() item {
			rng := newRand(seedFor(seed, "reclaim-sessions/"+label, 0))
			pick, ref := newDeck(rng, weights, 64), oneIn(rng, refEvery/4)
			return func() item {
				i := pick.next()
				return lifecycleOf(rng, slots[i], ref.next() == 0)
			}
		},
	}
}

// reclaimShares is the designed op-class mix of a session lifecycle: one
// create, reclaimBatches events POSTs of which reclaimDeviations re-plan,
// a schedule fetch after each re-plan and one at the end, and one delete.
// Fetches and the delete form the "light" class.
func reclaimShares() map[string]float64 {
	ops := float64(1 + reclaimBatches + reclaimDeviations + 1 + 1)
	return map[string]float64{
		"create": 1 / ops,
		"events": float64(reclaimBatches-reclaimDeviations) / ops,
		"replan": reclaimDeviations / ops,
		"light":  float64(reclaimDeviations+2) / ops,
	}
}

// replanShare is the designed share of completion events that re-plan:
// reclaimDeviations per lifecycle over the events of the lifecycles in
// their pool proportions.
func replanShare() float64 {
	replans, events := 0.0, 0.0
	for _, g := range reclaimGroups {
		replans += g.share * reclaimDeviations
		events += g.share * float64(g.shape.n*3/4)
	}
	return replans / events
}

var workloads = map[string]func(seed int64) *workload{
	"hot-repeat":       hotRepeat,
	"value-churn":      valueChurn,
	"reclaim-sessions": reclaimSessions,
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"hot-repeat", "value-churn", "reclaim-sessions"}

// costSignature lists what sets a workload's cost and must not depend on
// the seed: per pool slot and model, the family and the task, edge and
// request-byte counts, then the designed op-class shares.
func costSignature(w *workload) string {
	var b []byte
	for i, s := range w.slots {
		for _, m := range s.gr.models {
			in := newInstance(s.g.withWeights(newRand(int64(i))), s.gr.shape.family, m, 1.5)
			b = fmt.Appendf(b, "%s %s tasks=%d edges=%d bytes=%d\n", s.gr.shape.family, m.kind, in.g.n(), len(in.g.edges), len(in.encode(nil)))
		}
	}
	for _, c := range sortedKeys(w.shares) {
		b = fmt.Appendf(b, "class %s %.6f\n", c, w.shares[c])
	}
	return string(b)
}

// digestItems is the number of timed-window items covered by the
// request-stream digest.
const digestItems = 512

// requestDigest is the SHA-256 over the set-up items and the first
// digestItems items of the timed window's stream.
func requestDigest(w *workload) string {
	h := sha256.New()
	for _, it := range w.warm {
		h.Write(it.digestBytes())
	}
	next := w.stream("timed")
	for i := 0; i < digestItems; i++ {
		h.Write(next().digestBytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}
