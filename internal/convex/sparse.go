package convex

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// The sparse code path of the barrier method. Every constraint row of
// MinEnergy(G, D) — precedence tᵤ + d_v ≤ t_v, start d ≤ t, deadline
// t ≤ D, speed bounds on d — has at most three nonzeros, and the energy
// objective Σ wᵢ³/dᵢ² is separable, so the Newton system
//
//	(t·∇²f + AᵀS⁻²A) Δx = −g
//
// has exactly the sparsity of the execution graph. SparseMinimize
// assembles it directly in sparse form through precomputed scatter maps
// and factors it with the cached-symbolic LDLᵀ of internal/linalg: one
// Newton iteration costs O(nnz(L)) and performs zero heap allocations,
// against the dense path's O(m·n²) assembly and O(n³) factorization.
//
// With Options.Workers > 1 the per-iteration loops also run sharded on
// the shared linalg pool: the constraint mat-vecs (slack, A·dir) split
// by row range and stay bitwise identical to the sequential loop (rows
// are independent), and the gradient/Hessian assembly accumulates into
// per-worker partials reduced in fixed worker order — deterministic for
// a fixed worker count. All per-worker workspaces are allocated once at
// setup, preserving the zero-allocation steady state.

// DiagObjective is a twice-differentiable convex function with a
// diagonal Hessian — the separable objectives of the energy programs.
type DiagObjective interface {
	// Value returns f(x).
	Value(x linalg.Vector) float64
	// Gradient writes ∇f(x) into g.
	Gradient(x, g linalg.Vector)
	// HessianDiag writes the diagonal of ∇²f(x) into h.
	HessianDiag(x, h linalg.Vector)
}

const (
	// sparseParallelMinVars is the variable count below which automatic
	// worker selection stays sequential: dispatch overhead beats the win,
	// and the AllocsPerRun pin covers the exact sequential path.
	sparseParallelMinVars = 2048
	// sparseParallelMaxWorkers caps automatic worker selection.
	sparseParallelMaxWorkers = 8
	// barrierParallelMinRows is the constraint count below which the
	// line-search barrier evaluation stays sequential even when workers
	// are available.
	barrierParallelMinRows = 4096
)

// resolveWorkers maps Options.Workers to an effective worker count for a
// system with n variables.
func resolveWorkers(opts Options, n int) int {
	w := opts.Workers
	if w == 1 || w < 0 {
		return 1
	}
	if w == 0 {
		if n < sparseParallelMinVars {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
		if w > sparseParallelMaxWorkers {
			w = sparseParallelMaxWorkers
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SparseProgram is the compiled, structure-determined part of a sparse
// barrier solve: the Hessian pattern, fill-reducing ordering, symbolic
// factorization, scatter maps, and row-shard boundaries for the
// constraint system A·x ≤ b. It is bound to one constraint matrix A
// (pattern and values) and one worker count, both fixed at CompileSparse;
// the objective f, right-hand side b, and start point vary per Minimize.
//
// A program is safe for concurrent use: Minimize borrows a pooled
// per-solve workspace (numeric factor + Newton vectors) per call, so N
// goroutines can solve against one shared compile. Structure-keyed
// caches store this object to amortize the one-time work across requests
// that share a sparsity pattern.
type SparseProgram struct {
	a       *linalg.CSR
	n       int // variables
	m       int // constraints
	workers int

	sym *linalg.SymProgram

	// Scatter maps, fixed at compile: constraint row i contributes
	// w·pairProd[k] to h.Val[pairSlot[k]] for k in [pairPtr[i],
	// pairPtr[i+1]), with w = 1/sᵢ². diagSlot[j] addresses H[j,j] for
	// the objective's diagonal.
	pairPtr  []int
	pairSlot []int32
	pairProd []float64
	diagSlot []int32

	// rowPtr holds the fixed row-shard boundaries (len workers+1) when
	// workers > 1 and the system has constraints; nil otherwise.
	rowPtr []int

	// pool recycles per-solve workspaces across Minimize calls.
	pool sync.Pool
}

// sparseSolver is one solve's workspace over a compiled SparseProgram:
// the numeric factor plus every vector the Newton loop needs, so
// iterations allocate nothing. The structural fields (a, scatter maps,
// shard boundaries) alias the program and are read-only; f and b are set
// per solve.
type sparseSolver struct {
	f DiagObjective
	a *linalg.CSR
	b linalg.Vector
	n int // variables
	m int // constraints

	h *linalg.SparseSym
	// Scatter maps, fixed at setup: constraint row i contributes
	// w·pairProd[k] to h.Val[pairSlot[k]] for k in [pairPtr[i],
	// pairPtr[i+1]), with w = 1/sᵢ². diagSlot[j] addresses H[j,j] for
	// the objective's diagonal.
	pairPtr  []int
	pairSlot []int32
	pairProd []float64
	diagSlot []int32

	// Workspaces.
	grad  linalg.Vector
	hdiag linalg.Vector
	dir   linalg.Vector
	rhs   linalg.Vector
	slack linalg.Vector
	adir  linalg.Vector
	trial linalg.Vector

	// Parallel state (workers > 1); see the package comment. rowPtr holds
	// the fixed row-shard boundaries (len workers+1). The mv/asm/bar task
	// lists and their closures are created once at setup; per-call inputs
	// travel through the cur* fields set before RunTasks.
	workers  int
	rowPtr   []int
	gradW    []linalg.Vector // per-worker gradient partials
	hvW      [][]float64     // per-worker Hessian value partials
	phiW     []float64       // per-worker barrier partial sums
	absW     []float64       // per-worker Σ|log sᵢ| partials (barrier scale)
	mvTasks  []*linalg.PoolTask
	asmTasks []*linalg.PoolTask
	barTasks []*linalg.PoolTask
	wg       sync.WaitGroup
	mvX      linalg.Vector // mat-vec input
	mvDst    linalg.Vector // mat-vec output
	mvSub    bool          // true: dst = b − A·x, false: dst = A·x
	curT     float64       // barrier weight for the assembly/barrier tasks
	curStep  float64       // line-search step for the barrier tasks
	fail     atomic.Bool
}

// CompileSparse runs the one-time structural work for the constraint
// system A·x ≤ b with n variables: Hessian pattern, fill-reducing
// ordering, symbolic factorization, scatter maps, and shard boundaries.
// a may be nil (unconstrained Newton). Only opts.Ordering and
// opts.Workers participate — the worker count is baked into the program
// and later Minimize calls inherit it.
func CompileSparse(a *linalg.CSR, n int, opts Options) *SparseProgram {
	pr := &SparseProgram{a: a, n: n, workers: resolveWorkers(opts, n)}
	sb := linalg.NewSymBuilder(n)
	if a != nil {
		pr.m = a.Rows
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				for q := p; q < a.RowPtr[i+1]; q++ {
					sb.Add(a.Col[p], a.Col[q])
				}
			}
		}
	}
	pr.sym = sb.CompileProgram(linalg.CompileOptions{Ordering: opts.Ordering, Workers: pr.workers})

	if a != nil {
		pr.pairPtr = make([]int, a.Rows+1)
		for i := 0; i < a.Rows; i++ {
			nz := a.RowPtr[i+1] - a.RowPtr[i]
			pr.pairPtr[i+1] = pr.pairPtr[i] + nz*(nz+1)/2
		}
		pr.pairSlot = make([]int32, pr.pairPtr[a.Rows])
		pr.pairProd = make([]float64, pr.pairPtr[a.Rows])
		k := 0
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				for q := p; q < a.RowPtr[i+1]; q++ {
					pr.pairSlot[k] = int32(pr.sym.Slot(a.Col[p], a.Col[q]))
					pr.pairProd[k] = a.Val[p] * a.Val[q]
					k++
				}
			}
		}
	}
	pr.diagSlot = make([]int32, n)
	for j := 0; j < n; j++ {
		pr.diagSlot[j] = int32(pr.sym.Slot(j, j))
	}
	if pr.workers > 1 && pr.m > 0 {
		pr.rowPtr = make([]int, pr.workers+1)
		for i := 0; i <= pr.workers; i++ {
			pr.rowPtr[i] = i * pr.m / pr.workers
		}
	}
	return pr
}

// newWorkspace mints one solve's workspace: a numeric factor from the
// shared symbolic program, the Newton vectors, and (for workers > 1) the
// per-worker partials and task closures.
func (pr *SparseProgram) newWorkspace() *sparseSolver {
	n := pr.n
	s := &sparseSolver{
		a:        pr.a,
		n:        n,
		m:        pr.m,
		workers:  pr.workers,
		h:        pr.sym.NewFactor(),
		pairPtr:  pr.pairPtr,
		pairSlot: pr.pairSlot,
		pairProd: pr.pairProd,
		diagSlot: pr.diagSlot,
		rowPtr:   pr.rowPtr,
	}
	s.grad = linalg.NewVector(n)
	s.hdiag = linalg.NewVector(n)
	s.dir = linalg.NewVector(n)
	s.rhs = linalg.NewVector(n)
	s.slack = linalg.NewVector(s.m)
	s.adir = linalg.NewVector(s.m)
	s.trial = linalg.NewVector(n)

	if s.workers > 1 && s.m > 0 {
		w := s.workers
		s.gradW = make([]linalg.Vector, w)
		s.hvW = make([][]float64, w)
		s.phiW = make([]float64, w)
		s.absW = make([]float64, w)
		for i := 0; i < w; i++ {
			i := i
			s.gradW[i] = linalg.NewVector(n)
			s.hvW[i] = make([]float64, len(s.h.Val))
			s.mvTasks = append(s.mvTasks, &linalg.PoolTask{Fn: func() { s.mvShard(i) }})
			s.asmTasks = append(s.asmTasks, &linalg.PoolTask{Fn: func() { s.asmShard(i) }})
			s.barTasks = append(s.barTasks, &linalg.PoolTask{Fn: func() { s.barShard(i) }})
		}
	}
	return s
}

// Minimize runs the barrier method over this compiled program with the
// given objective, right-hand side, and strictly feasible start point.
// The per-solve workspace is borrowed from the program's pool, so warm
// calls skip both the symbolic analysis and the workspace allocations.
// opts.Workers and opts.Ordering are ignored here — both were fixed at
// CompileSparse.
func (pr *SparseProgram) Minimize(f DiagObjective, b linalg.Vector, x0 linalg.Vector, opts Options) (*Result, error) {
	if pr.a != nil {
		if pr.a.Cols != len(x0) || len(b) != pr.a.Rows {
			return nil, ErrDimension
		}
	} else if len(x0) != pr.n {
		return nil, ErrDimension
	}
	var s *sparseSolver
	if v := pr.pool.Get(); v != nil {
		s = v.(*sparseSolver)
	} else {
		s = pr.newWorkspace()
	}
	s.f, s.b = f, b
	res, err := s.minimize(x0, opts)
	s.f, s.b = nil, nil
	pr.pool.Put(s)
	return res, err
}

// N returns the variable count the program was compiled for.
func (pr *SparseProgram) N() int { return pr.n }

// M returns the constraint count the program was compiled for.
func (pr *SparseProgram) M() int { return pr.m }

// mvShard computes rows [rowPtr[w], rowPtr[w+1]) of the current mat-vec:
// per-row dot products in ascending index order, so the result is
// bitwise identical to the sequential computation.
func (s *sparseSolver) mvShard(w int) {
	a, x := s.a, s.mvX
	for i := s.rowPtr[w]; i < s.rowPtr[w+1]; i++ {
		sum := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			sum += a.Val[p] * x[a.Col[p]]
		}
		if s.mvSub {
			s.mvDst[i] = s.b[i] - sum
		} else {
			s.mvDst[i] = sum
		}
	}
}

// computeSlack fills slack = b − A·x.
func (s *sparseSolver) computeSlack(x, slack linalg.Vector) {
	if s.mvTasks != nil {
		s.mvX, s.mvDst, s.mvSub = x, slack, true
		linalg.RunTasks(s.mvTasks, &s.wg)
		return
	}
	s.a.MulVec(x, slack)
	for i := range slack {
		slack[i] = s.b[i] - slack[i]
	}
}

// mulA fills dst = A·x.
func (s *sparseSolver) mulA(x, dst linalg.Vector) {
	if s.mvTasks != nil {
		s.mvX, s.mvDst, s.mvSub = x, dst, false
		linalg.RunTasks(s.mvTasks, &s.wg)
		return
	}
	s.a.MulVec(x, dst)
}

// asmShard accumulates the barrier gradient and Hessian contributions of
// its row shard into this worker's partials. Slack must already hold
// b − A·x; a non-positive entry flips fail and aborts the shard.
func (s *sparseSolver) asmShard(w int) {
	a := s.a
	gw := s.gradW[w]
	for j := range gw {
		gw[j] = 0
	}
	hw := s.hvW[w]
	for k := range hw {
		hw[k] = 0
	}
	for i := s.rowPtr[w]; i < s.rowPtr[w+1]; i++ {
		si := s.slack[i]
		if si <= 0 {
			s.fail.Store(true)
			return
		}
		inv := 1 / si
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			gw[a.Col[p]] += a.Val[p] * inv
		}
		ww := inv * inv
		for k := s.pairPtr[i]; k < s.pairPtr[i+1]; k++ {
			hw[s.pairSlot[k]] += ww * s.pairProd[k]
		}
	}
}

// barShard evaluates the barrier sum −Σ log(sᵢ − step·(A·dir)ᵢ) over its
// row shard into phiW[w], and Σ|log| into absW[w]; a non-positive trial
// slack flips fail.
func (s *sparseSolver) barShard(w int) {
	step := s.curStep
	phi, abs := 0.0, 0.0
	for i := s.rowPtr[w]; i < s.rowPtr[w+1]; i++ {
		ts := s.slack[i] - step*s.adir[i]
		if ts <= 0 {
			s.fail.Store(true)
			return
		}
		l := math.Log(ts)
		phi -= l
		abs += math.Abs(l)
	}
	s.phiW[w], s.absW[w] = phi, abs
}

// newtonStep assembles the gradient and sparse Hessian of t·f + φ at x
// and solves for the Newton direction into s.dir. Zero allocations.
func (s *sparseSolver) newtonStep(x linalg.Vector, t float64) (float64, error) {
	// Gradient: t·∇f + Σ aᵢ/sᵢ; Hessian: t·∇²f + Σ aᵢaᵢᵀ/sᵢ².
	s.f.Gradient(x, s.grad)
	s.grad.Scale(t)
	s.h.ZeroVals()
	s.f.HessianDiag(x, s.hdiag)
	hv := s.h.Val
	for j := 0; j < s.n; j++ {
		hv[s.diagSlot[j]] += t * s.hdiag[j]
	}
	if s.a != nil {
		s.computeSlack(x, s.slack)
		if s.asmTasks != nil {
			s.fail.Store(false)
			linalg.RunTasks(s.asmTasks, &s.wg)
			if s.fail.Load() {
				for i := 0; i < s.m; i++ {
					if s.slack[i] <= 0 {
						return 0, fmt.Errorf("%w: slack %d non-positive during centering", ErrNumerical, i)
					}
				}
			}
			// Reduce the per-worker partials in fixed worker order —
			// deterministic for a fixed worker count.
			for w := 0; w < len(s.gradW); w++ {
				gw := s.gradW[w]
				for j := 0; j < s.n; j++ {
					s.grad[j] += gw[j]
				}
				hw := s.hvW[w]
				for k := range hw {
					hv[k] += hw[k]
				}
			}
		} else {
			for i := 0; i < s.m; i++ {
				si := s.slack[i]
				if si <= 0 {
					return 0, fmt.Errorf("%w: slack %d non-positive during centering", ErrNumerical, i)
				}
				inv := 1 / si
				for p := s.a.RowPtr[i]; p < s.a.RowPtr[i+1]; p++ {
					s.grad[s.a.Col[p]] += s.a.Val[p] * inv
				}
				w := inv * inv
				for k := s.pairPtr[i]; k < s.pairPtr[i+1]; k++ {
					hv[s.pairSlot[k]] += w * s.pairProd[k]
				}
			}
		}
	}
	if _, err := s.h.Factor(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNumerical, err)
	}
	for j := 0; j < s.n; j++ {
		s.rhs[j] = -s.grad[j]
	}
	s.h.SolveInto(s.rhs, s.dir)
	return s.grad.Norm2(), nil
}

// trialBarrier evaluates t·f + φ at x + step·dir using the slack and
// A·dir vectors already computed by the line search: the trial slack is
// slack − step·(A·dir), so backtracking never re-runs the constraint
// mat-vec. step 0 evaluates the current point. The second result is the
// magnitude |t·f| + Σ|log sᵢ| of the terms summed (see roundoffFloor).
func (s *sparseSolver) trialBarrier(x linalg.Vector, step, t float64) (float64, float64) {
	copy(s.trial, x)
	if step != 0 {
		s.trial.AddScaled(step, s.dir)
	}
	v := t * s.f.Value(s.trial)
	scale := math.Abs(v)
	if s.a == nil {
		return v, scale
	}
	if s.barTasks != nil && s.m >= barrierParallelMinRows {
		s.fail.Store(false)
		s.curStep = step
		linalg.RunTasks(s.barTasks, &s.wg)
		if s.fail.Load() {
			return math.Inf(1), math.Inf(1)
		}
		for w, phi := range s.phiW {
			v += phi
			scale += s.absW[w]
		}
		return v, scale
	}
	for i := 0; i < s.m; i++ {
		ts := s.slack[i] - step*s.adir[i]
		if ts <= 0 {
			return math.Inf(1), math.Inf(1)
		}
		l := math.Log(ts)
		v -= l
		scale += math.Abs(l)
	}
	return v, scale
}

// lineSearch backtracks along s.dir from x, first shrinking to stay
// strictly feasible, then enforcing an Armijo decrease. s.slack must hold
// the slack at x, as newtonStep leaves it. x is updated in place; returns
// false when centering should stop: no step could be taken, the predicted
// decrease is below the roundoff floor, or the accepted step made no
// measurable decrease. Zero allocations.
func (s *sparseSolver) lineSearch(x linalg.Vector, t float64) bool {
	const (
		alpha = 0.25
		beta  = 0.5
	)
	step := 1.0
	if s.a != nil {
		s.mulA(s.dir, s.adir)
		for i := range s.adir {
			if s.adir[i] > 0 {
				limit := s.slack[i] / s.adir[i]
				if 0.99*limit < step {
					step = 0.99 * limit
				}
			}
		}
	}
	if step <= 0 || math.IsNaN(step) {
		return false
	}
	v0, scale := s.trialBarrier(x, 0, t)
	slope := s.grad.Dot(s.dir)
	if -slope <= roundoffFloor*scale {
		return false
	}
	for k := 0; k < 60; k++ {
		v, _ := s.trialBarrier(x, step, t)
		if v <= v0+alpha*step*slope && !math.IsNaN(v) {
			copy(x, s.trial) // trialBarrier left x + step·dir here
			return v < v0
		}
		step *= beta
	}
	return false
}

// estimateT0 returns the AutoT0 barrier weight at x: the least-squares
// fit of t·∇f(x) + ∇φ(x) ≈ 0, clamped by clampT0. s.slack must already
// hold the (strictly positive) slack at x. Uses s.rhs as scratch.
func (s *sparseSolver) estimateT0(x linalg.Vector, tol float64) float64 {
	s.f.Gradient(x, s.grad)
	for j := 0; j < s.n; j++ {
		s.rhs[j] = 0
	}
	for i := 0; i < s.m; i++ {
		inv := 1 / s.slack[i]
		for p := s.a.RowPtr[i]; p < s.a.RowPtr[i+1]; p++ {
			s.rhs[s.a.Col[p]] += s.a.Val[p] * inv
		}
	}
	num, den := 0.0, 0.0
	for j := 0; j < s.n; j++ {
		num -= s.grad[j] * s.rhs[j]
		den += s.grad[j] * s.grad[j]
	}
	return clampT0(num/den, s.m, tol)
}

// minimize runs the path-following barrier method from the strictly
// feasible x0, reusing every compiled structure and workspace.
func (s *sparseSolver) minimize(x0 linalg.Vector, opts Options) (*Result, error) {
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-9
	}
	maxNewton := opts.MaxNewton
	if maxNewton == 0 {
		maxNewton = 60
	}
	maxOuter := opts.MaxOuter
	if maxOuter == 0 {
		maxOuter = 80
	}
	mu := opts.Mu
	if mu == 0 {
		mu = 12
	}
	t := opts.T0
	if t == 0 {
		t = 1
	}

	x := x0.Clone()
	if s.m > 0 {
		s.computeSlack(x, s.slack)
		if s.slack.Min() <= 0 {
			return nil, fmt.Errorf("%w (min slack %g)", ErrInfeasibleStart, s.slack.Min())
		}
		if opts.AutoT0 && opts.T0 == 0 {
			t = s.estimateT0(x, tol)
		}
	}
	res := &Result{}
	for outer := 0; outer < maxOuter; outer++ {
		res.OuterStages++
		for it := 0; it < maxNewton; it++ {
			res.Newton++
			gnorm, err := s.newtonStep(x, t)
			if err != nil {
				return nil, err
			}
			lambda2 := -s.grad.Dot(s.dir)
			if lambda2 < 0 {
				lambda2 = 0
			}
			if lambda2/2 < 1e-12 || gnorm < 1e-13 {
				break
			}
			if !s.lineSearch(x, t) {
				break
			}
		}
		gap := float64(s.m) / t
		res.GapBound = gap
		if s.m == 0 || gap < tol {
			break
		}
		t *= mu
	}
	res.X = x
	res.Value = s.f.Value(x)
	return res, nil
}

// SparseMinimize runs the barrier method on the sparse constraint system
// A·x ≤ b from the strictly feasible point x0. It is numerically the
// same path-following scheme as Minimize — same centering, same stopping
// rules — with the Newton system assembled and factored in sparse form:
// setup compiles the Hessian pattern, a fill-reducing ordering, and the
// symbolic factorization once, after which every Newton iteration runs
// allocation-free. a may be nil (unconstrained Newton on a separable
// objective). Options.Workers > 1 (or 0 on a large enough system with
// GOMAXPROCS > 1) runs the factorization and per-iteration loops on the
// shared worker pool; concurrent SparseMinimize calls are independent.
func SparseMinimize(f DiagObjective, a *linalg.CSR, b linalg.Vector, x0 linalg.Vector, opts Options) (*Result, error) {
	n := len(x0)
	if a != nil {
		if a.Cols != n || len(b) != a.Rows {
			return nil, ErrDimension
		}
	}
	return CompileSparse(a, n, opts).Minimize(f, b, x0, opts)
}
