package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// dag is the benchmark's own task graph: weights plus precedence edges,
// every edge pointing from a lower to a higher task ID, so task-ID order is
// a topological order. The benchmark never builds its inputs with the
// program's graph types: what is sent stays fixed when they change.
type dag struct {
	w     []float64
	edges [][2]int
	pred  [][]int // predecessor lists, built once per structure
}

func (g *dag) n() int { return len(g.w) }

// shape names a structure family and its size. Every family draws an exact
// number of edges, so a shape fixes the task count, the edge count and,
// with the fixed-width encoding below, the request size; a structure seed
// only chooses which edges.
type shape struct {
	family string // chain, fork, outtree, sp, layered, kin, mixed
	n      int    // tasks
	width  int    // layered: tasks per layer
	deg    int    // layered, kin: predecessors per task
	m      int    // sp: the edge count every draw is held to
}

// edges is the exact edge count of the shape's structures.
func (s shape) edges() int {
	switch s.family {
	case "chain", "fork", "outtree":
		return s.n - 1
	case "sp":
		return s.m
	case "layered":
		return (s.n/s.width - 1) * s.width * s.deg
	case "kin":
		m := 0
		for v := 1; v < s.n; v++ {
			m += min(v, s.deg)
		}
		return m
	case "mixed":
		m := 0
		for _, p := range s.parts() {
			m += p.edges()
		}
		return m
	}
	panic("perfbench: unknown family " + s.family)
}

// parts lists the components of a mixed shape: chains, layered blocks and a
// tree side by side, so the planner splits it into several components.
func (s shape) parts() []shape {
	q := s.n / 6
	return []shape{
		{family: "chain", n: q},
		{family: "layered", n: s.n/4 - s.n/4%4, width: 4, deg: 2},
		{family: "outtree", n: q},
		{family: "layered", n: s.n/4 - s.n/4%4, width: 4, deg: 2},
		{family: "chain", n: s.n - 2*q - 2*(s.n/4-s.n/4%4)},
	}
}

// structure draws the edge set of s from rng and returns a graph whose
// weights are all 1.
func (s shape) structure(rng *rand.Rand) *dag {
	g := &dag{w: make([]float64, s.n)}
	switch s.family {
	case "chain":
		for i := 1; i < s.n; i++ {
			g.edges = append(g.edges, [2]int{i - 1, i})
		}
	case "fork":
		for i := 1; i < s.n; i++ {
			g.edges = append(g.edges, [2]int{0, i})
		}
	case "outtree":
		for i := 1; i < s.n; i++ {
			g.edges = append(g.edges, [2]int{rng.Intn(i), i})
		}
	case "sp":
		// Random series-parallel orders vary in edge count; redraw until
		// one has exactly s.m edges.
		for try := 0; ; try++ {
			if try == 100000 {
				panic(fmt.Sprintf("perfbench: no series-parallel order of %d tasks with %d edges", s.n, s.m))
			}
			g.edges = g.edges[:0]
			spBuild(rng, g, 0, s.n)
			if len(g.edges) == s.m {
				break
			}
		}
	case "layered":
		for l := 1; l < s.n/s.width; l++ {
			for j := 0; j < s.width; j++ {
				v := l*s.width + j
				for _, k := range pickDistinct(rng, s.width, s.deg) {
					g.edges = append(g.edges, [2]int{(l-1)*s.width + k, v})
				}
			}
		}
	case "kin":
		for v := 1; v < s.n; v++ {
			for _, u := range pickDistinct(rng, v, min(v, s.deg)) {
				g.edges = append(g.edges, [2]int{u, v})
			}
		}
	case "mixed":
		g.w = g.w[:0]
		for _, p := range s.parts() {
			g.union(p.structure(rng))
		}
	default:
		panic("perfbench: unknown family " + s.family)
	}
	for i := range g.w {
		g.w[i] = 1
	}
	g.preds()
	return g
}

// pickDistinct returns k distinct integers from [0, n) in increasing order.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	picked := make([]bool, n)
	out := make([]int, 0, k)
	for len(out) < k {
		if u := rng.Intn(n); !picked[u] {
			picked[u] = true
			out = append(out, u)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// spBuild adds a random series-parallel order on tasks [lo, hi) to g and
// returns its sources and sinks. Series composition links every sink of the
// left part to every source of the right part.
func spBuild(rng *rand.Rand, g *dag, lo, hi int) (sources, sinks []int) {
	if hi-lo == 1 {
		return []int{lo}, []int{lo}
	}
	cut := lo + 1 + rng.Intn(hi-lo-1)
	ls, lk := spBuild(rng, g, lo, cut)
	rs, rk := spBuild(rng, g, cut, hi)
	// A series cut is more likely than a parallel one, so most SP shapes
	// stay connected and deep enough to exercise the SP algebra.
	if rng.Intn(3) != 0 {
		for _, u := range lk {
			for _, v := range rs {
				g.edges = append(g.edges, [2]int{u, v})
			}
		}
		return ls, rk
	}
	return append(ls, rs...), append(lk, rk...)
}

// union appends h's tasks and edges to g, renumbered after g's.
func (g *dag) union(h *dag) {
	off := g.n()
	g.w = append(g.w, h.w...)
	for _, e := range h.edges {
		g.edges = append(g.edges, [2]int{e[0] + off, e[1] + off})
	}
}

// withWeights returns g's structure carrying fresh weights in [1, 10) with
// six decimals, so every weight encodes in the same eight bytes.
func (g *dag) withWeights(rng *rand.Rand) *dag {
	out := &dag{w: make([]float64, g.n()), edges: g.edges, pred: g.pred}
	for i := range out.w {
		out.w[i] = float64(1_000_000+rng.Intn(9_000_000)) / 1e6
	}
	return out
}

// preds returns the predecessor lists, building them for a graph made by
// hand.
func (g *dag) preds() [][]int {
	if g.pred == nil {
		g.pred = make([][]int, g.n())
		for _, e := range g.edges {
			g.pred[e[1]] = append(g.pred[e[1]], e[0])
		}
	}
	return g.pred
}

func (g *dag) succs() [][]int {
	s := make([][]int, g.n())
	for _, e := range g.edges {
		s[e[0]] = append(s[e[0]], e[1])
	}
	return s
}

func (g *dag) totalWeight() float64 {
	sum := 0.0
	for _, w := range g.w {
		sum += w
	}
	return sum
}

// modelSpec is the wire form of an energy model.
type modelSpec struct {
	kind  string // continuous, vdd-hopping, discrete, incremental
	smax  float64
	smin  float64
	delta float64
	modes []float64
}

// top is the fastest admissible speed.
func (m modelSpec) top() float64 {
	if len(m.modes) > 0 {
		return m.modes[len(m.modes)-1]
	}
	return m.smax
}

// Models used by the workloads.
var (
	continuous  = modelSpec{kind: "continuous", smax: 4}
	vdd4        = modelSpec{kind: "vdd-hopping", modes: []float64{0.5, 1, 2, 4}}
	vdd12       = modelSpec{kind: "vdd-hopping", modes: []float64{0.4, 0.6, 0.8, 1, 1.25, 1.5, 1.75, 2, 2.5, 3, 3.5, 4}}
	discrete4   = modelSpec{kind: "discrete", modes: []float64{0.5, 1, 2, 4}}
	incremental = modelSpec{kind: "incremental", smin: 0.5, smax: 4, delta: 0.5}
)

// instance is one MinEnergy request: a graph, a deadline and a model.
type instance struct {
	g        *dag
	family   string
	deadline float64
	model    modelSpec
}

// closedForm reports whether the continuous model solves the family by the
// closed forms and the series-parallel algebra of Theorems 1 and 2.
func closedForm(family string) bool {
	switch family {
	case "chain", "fork", "outtree", "sp":
		return true
	}
	return false
}

// newInstance sets the deadline at slack times a reference duration at the
// model's top speed. For the continuous model on closed-form families the
// reference is the total weight, which bounds every task's optimal speed
// by smax/slack, so smax never binds and the closed forms apply unchanged.
// Otherwise it is the longest path, the minimal makespan. The deadline is
// rounded to the twelve significant digits it is sent with.
func newInstance(g *dag, family string, m modelSpec, slack float64) instance {
	ref := longestPath(g, g.w)
	if m.kind == "continuous" && closedForm(family) {
		ref = g.totalWeight()
	}
	d, err := strconv.ParseFloat(strconv.FormatFloat(slack*ref/m.top(), 'e', 12, 64), 64)
	if err != nil {
		panic(err)
	}
	return instance{g: g, family: family, deadline: d, model: m}
}

// encode renders the request body as a compact JSON object whose length
// depends only on the task count, the edge count and the model: weights
// carry six decimals, the deadline thirteen significant digits, and task
// IDs in edges are space-padded to the width of the largest ID.
func (in instance) encode(b []byte) []byte {
	n := in.g.n()
	width := len(strconv.Itoa(max(n-1, 0)))
	b = append(b, `{"graph":{"tasks":[`...)
	for i, w := range in.g.w {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"weight":`...)
		b = strconv.AppendFloat(b, w, 'f', 6, 64)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, e := range in.g.edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = appendPadded(b, e[0], width)
		b = append(b, ',')
		b = appendPadded(b, e[1], width)
		b = append(b, ']')
	}
	b = append(b, `]},"deadline":`...)
	b = strconv.AppendFloat(b, in.deadline, 'e', 12, 64)
	b = append(b, `,"model":{"kind":"`...)
	b = append(b, in.model.kind...)
	b = append(b, '"')
	num := func(key string, v float64) {
		if v != 0 {
			b = append(b, `,"`...)
			b = append(b, key...)
			b = append(b, `":`...)
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	num("smax", in.model.smax)
	num("smin", in.model.smin)
	num("delta", in.model.delta)
	if len(in.model.modes) > 0 {
		b = append(b, `,"modes":[`...)
		for i, s := range in.model.modes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, s, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "}}"...)
}

// appendPadded appends v right-aligned in width bytes, padded with JSON
// whitespace.
func appendPadded(b []byte, v, width int) []byte {
	for d := len(strconv.Itoa(v)); d < width; d++ {
		b = append(b, ' ')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// encodeEvents renders a completion-event batch.
func encodeEvents(b []byte, tasks []int, durations []float64) []byte {
	b = append(b, `{"events":[`...)
	for i, t := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"task":`...)
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, `,"actual_duration":`...)
		b = strconv.AppendFloat(b, durations[i], 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// seedFor derives an independent stream seed from the run seed and a
// stream label, so every pool and stream draws from its own generator.
func seedFor(seed int64, label string, idx int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= h >> 31
	return int64(h & (1<<63 - 1))
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// longestPath returns the earliest-start makespan for per-task durations.
func longestPath(g *dag, dur []float64) float64 {
	finish := make([]float64, g.n())
	preds := g.preds()
	best := 0.0
	for v := 0; v < g.n(); v++ {
		start := 0.0
		for _, u := range preds[v] {
			start = math.Max(start, finish[u])
		}
		finish[v] = start + dur[v]
		best = math.Max(best, finish[v])
	}
	return best
}
