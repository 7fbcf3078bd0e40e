package core

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/model"
)

// Extension: generalized power exponent. The paper (following its citations
// [4, 5]) fixes dynamic power to s³; the wider DVFS literature models it as
// s^α with α ∈ (1, 3]. Every continuous-model structure of the paper
// survives the generalization:
//
//   - a task of cost w at speed s burns w·s^(α-1);
//   - a chain runs at one speed, with energy W^α/D^(α-1);
//   - the series composition still splits the window in proportion to
//     equivalent weights (the first-order condition W₁/y = W₂/(x-y) is
//     α-independent), so series weights still add;
//   - the parallel composition becomes W = (W₁^α + W₂^α)^(1/α);
//   - the fork optimum becomes s₀ = ((Σwᵢ^α)^(1/α) + w₀)/D.
//
// These solvers are the ablation substrate for the "does α matter?"
// experiment (A2); they deliberately return a lean AlphaSolution rather than
// a Schedule because the sched package accounts energy at the paper's fixed
// α = 3.

// AlphaSolution is a continuous-model solution under power s^alpha.
type AlphaSolution struct {
	Alpha    float64
	Speeds   []float64
	Energy   float64 // Σ wᵢ·sᵢ^(α-1)
	Makespan float64
	Stats    Stats
}

// AlphaTaskEnergy returns w·s^(α-1), the generalized task energy.
func AlphaTaskEnergy(w, s, alpha float64) float64 {
	if s <= 0 {
		if w == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return w * math.Pow(s, alpha-1)
}

func checkAlpha(alpha float64) error {
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return fmt.Errorf("core: power exponent α must be finite and > 1, got %v", alpha)
	}
	return nil
}

// EquivalentWeightAlpha generalizes the Theorem 2 algebra to power s^α.
func EquivalentWeightAlpha(g *graph.Graph, e *graph.SPExpr, alpha float64) float64 {
	switch e.Kind {
	case graph.SPTask:
		return g.Weight(e.Task)
	case graph.SPSeries:
		sum := 0.0
		for _, c := range e.Children {
			sum += EquivalentWeightAlpha(g, c, alpha)
		}
		return sum
	default: // SPParallel
		pow := 0.0
		for _, c := range e.Children {
			w := EquivalentWeightAlpha(g, c, alpha)
			pow += math.Pow(w, alpha)
		}
		return math.Pow(pow, 1/alpha)
	}
}

func assignAlphaSpeeds(g *graph.Graph, e *graph.SPExpr, window, alpha float64, speeds []float64) {
	switch e.Kind {
	case graph.SPTask:
		speeds[e.Task] = g.Weight(e.Task) / window
	case graph.SPSeries:
		total := EquivalentWeightAlpha(g, e, alpha)
		for _, c := range e.Children {
			share := window * EquivalentWeightAlpha(g, c, alpha) / total
			assignAlphaSpeeds(g, c, share, alpha, speeds)
		}
	default:
		for _, c := range e.Children {
			assignAlphaSpeeds(g, c, window, alpha, speeds)
		}
	}
}

// SolveSPContinuousAlpha solves the continuous model with power s^α on a
// series-parallel execution graph (smax = ∞), in O(n·depth).
func (p *Problem) SolveSPContinuousAlpha(e *graph.SPExpr, alpha float64) (*AlphaSolution, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
	speeds := make([]float64, p.G.N())
	assignAlphaSpeeds(p.G, e, p.Deadline, alpha, speeds)
	return p.alphaSolutionFromSpeeds(speeds, alpha, Stats{Algorithm: "sp-equivalent-weight-alpha", Exact: true, BoundFactor: 1})
}

// SPOptimalEnergyAlpha returns the closed-form optimum W^α / D^(α-1).
func (p *Problem) SPOptimalEnergyAlpha(e *graph.SPExpr, alpha float64) float64 {
	w := EquivalentWeightAlpha(p.G, e, alpha)
	return math.Pow(w, alpha) / math.Pow(p.Deadline, alpha-1)
}

// alphaEnergyObjective is Σ wᵢ^α / dᵢ^(α-1) over x = (t, d).
type alphaEnergyObjective struct {
	w     []float64
	n     int
	alpha float64
}

func (f *alphaEnergyObjective) Value(x linalg.Vector) float64 {
	v := 0.0
	for i := 0; i < f.n; i++ {
		v += math.Pow(f.w[i], f.alpha) / math.Pow(x[f.n+i], f.alpha-1)
	}
	return v
}

func (f *alphaEnergyObjective) Gradient(x, g linalg.Vector) {
	for i := 0; i < f.n; i++ {
		g[i] = 0
	}
	a := f.alpha
	for i := 0; i < f.n; i++ {
		g[f.n+i] = -(a - 1) * math.Pow(f.w[i], a) / math.Pow(x[f.n+i], a)
	}
}

func (f *alphaEnergyObjective) Hessian(x linalg.Vector, h *linalg.Matrix) {
	a := f.alpha
	for i := 0; i < f.n; i++ {
		h.Add(f.n+i, f.n+i, a*(a-1)*math.Pow(f.w[i], a)/math.Pow(x[f.n+i], a+1))
	}
}

func (f *alphaEnergyObjective) HessianDiag(x, h linalg.Vector) {
	for i := 0; i < f.n; i++ {
		h[i] = 0
	}
	a := f.alpha
	for i := 0; i < f.n; i++ {
		h[f.n+i] = a * (a - 1) * math.Pow(f.w[i], a) / math.Pow(x[f.n+i], a+1)
	}
}

// SolveContinuousNumericAlpha solves the generalized geometric program on an
// arbitrary execution graph with speeds in (0, smax].
func (p *Problem) SolveContinuousNumericAlpha(smax, alpha float64, opts ContinuousOptions) (*AlphaSolution, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	if !(smax > 0) {
		return nil, model.ErrBadSMax
	}
	if err := p.CheckFeasible(smax); err != nil {
		return nil, err
	}
	n := p.G.N()
	cpw, err := p.G.CriticalPathWeight()
	if err != nil {
		return nil, err
	}
	wn := make([]float64, n)
	for i := 0; i < n; i++ {
		wn[i] = p.G.Weight(i) / cpw
	}
	sCap := smax * p.Deadline / cpw
	if math.IsInf(smax, 1) {
		// Same argument as the α = 3 solver: wᵢ·sᵢ^(α-1) ≤ E* ≤
		// Σwⱼ·(cpw/D)^(α-1) bounds every optimal speed.
		totalN := 0.0
		minW := math.Inf(1)
		for _, w := range wn {
			totalN += w
			if w < minW {
				minW = w
			}
		}
		sCap = 4 * math.Pow(totalN/minW, 1/(alpha-1))
	}
	edges := p.G.Edges()
	rows := len(edges) + 3*n
	ab := linalg.NewCSRBuilder(2 * n)
	b := linalg.NewVector(rows)
	r := 0
	for _, e := range edges {
		ab.Set(e[0], 1)
		ab.Set(n+e[1], 1)
		ab.Set(e[1], -1)
		ab.EndRow()
		r++
	}
	for i := 0; i < n; i++ {
		ab.Set(n+i, 1)
		ab.Set(i, -1)
		ab.EndRow()
		r++
	}
	for i := 0; i < n; i++ {
		ab.Set(i, 1)
		ab.EndRow()
		b[r] = 1
		r++
	}
	lo := make([]float64, n)
	for i := 0; i < n; i++ {
		lo[i] = wn[i] / sCap
		ab.Set(n+i, -1)
		ab.EndRow()
		b[r] = -lo[i]
		r++
	}
	a := ab.Build()
	mstar, err := p.G.Makespan(lo)
	if err != nil {
		return nil, err
	}
	if mstar >= 1 {
		return nil, fmt.Errorf("%w: normalized fastest makespan %.9g ≥ 1", ErrInfeasible, mstar)
	}
	lambda := 1 / mstar
	mu := math.Cbrt(lambda)
	nu := math.Cbrt(lambda)
	d0 := make([]float64, n)
	for i := range d0 {
		d0[i] = mu * lo[i]
	}
	pa, err := p.G.Analyze(d0, 1)
	if err != nil {
		return nil, err
	}
	x0 := linalg.NewVector(2 * n)
	for i := 0; i < n; i++ {
		x0[i] = nu * pa.EarliestFinish[i]
		x0[n+i] = d0[i]
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	obj := &alphaEnergyObjective{w: wn, n: n, alpha: alpha}
	copts := convex.Options{Tol: tol * math.Max(1, obj.Value(x0))}
	var res *convex.Result
	if opts.DenseKernel {
		res, err = convex.Minimize(obj, a.Dense(), b, x0, copts)
	} else {
		res, err = convex.SparseMinimize(obj, a, b, x0, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: α-continuous solve failed: %w", err)
	}
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		speeds[i] = (wn[i] / res.X[n+i]) * cpw / p.Deadline
		if !math.IsInf(smax, 1) && speeds[i] > smax {
			speeds[i] = smax
		}
	}
	return p.alphaSolutionFromSpeeds(speeds, alpha, Stats{
		Algorithm: "continuous-interior-point-alpha", Newton: res.Newton, OuterStages: res.OuterStages, Exact: true, BoundFactor: 1,
	})
}

// alphaSolutionFromSpeeds computes the generalized energy and validates
// feasibility against the deadline.
func (p *Problem) alphaSolutionFromSpeeds(speeds []float64, alpha float64, st Stats) (*AlphaSolution, error) {
	n := p.G.N()
	durations := make([]float64, n)
	energy := 0.0
	for i := 0; i < n; i++ {
		if !(speeds[i] > 0) {
			return nil, fmt.Errorf("core: task %d has non-positive speed %v", i, speeds[i])
		}
		durations[i] = p.G.Weight(i) / speeds[i]
		energy += AlphaTaskEnergy(p.G.Weight(i), speeds[i], alpha)
	}
	ms, err := p.G.Makespan(durations)
	if err != nil {
		return nil, err
	}
	if ms > p.Deadline*(1+1e-6) {
		return nil, fmt.Errorf("%w: α-solution makespan %.9g > %.9g", ErrInfeasible, ms, p.Deadline)
	}
	return &AlphaSolution{Alpha: alpha, Speeds: speeds, Energy: energy, Makespan: ms, Stats: st}, nil
}
