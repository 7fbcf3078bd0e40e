package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// Residual re-planning: when a schedule is already executing, completed
// tasks freeze and the remaining tasks form a residual MinEnergy instance
// with per-task release times (the latest frozen-predecessor finish).
// AnalyzeResidual routes that instance — release-free components keep the
// cheap structural solvers, release-bearing ones go to the release-aware
// kernels — and Replan executes only the components an event actually
// dirtied, warm-starting each from the previous solution and replaying the
// untouched components verbatim. Energy additivity across weakly-connected
// components (the same observation behind SolvePlanned) is what makes the
// verbatim replay lossless: an event in one component cannot move another
// component's optimum.

// Residual describes a residual instance over a problem p built on the
// remaining (incomplete) tasks: release times plus the previous solution
// those tasks currently execute.
type Residual struct {
	// Release[i] is the earliest permitted start of task i (problem-local
	// IDs): the latest actual finish among its frozen predecessors. nil
	// means every task may start at 0.
	Release []float64
	// PrevSpeeds[i] is the constant speed task i currently runs at under
	// the previous solution (Continuous, Discrete, Incremental). Used to
	// warm-start dirty components and to replay clean ones.
	PrevSpeeds []float64
	// PrevProfiles[i] is the previous speed profile of task i
	// (Vdd-Hopping, whose tasks hop between modes). Takes precedence over
	// PrevSpeeds.
	PrevProfiles []sched.Profile
	// Cold disables warm-starting: dirty components re-solve from scratch
	// (clean components still replay). Benchmarks use it as the baseline.
	Cold bool
}

// sliceRelease extracts the component-local release vector, nil when the
// component has no positive release.
func (res *Residual) sliceRelease(tasks []int) []float64 {
	if res == nil || res.Release == nil {
		return nil
	}
	out := make([]float64, len(tasks))
	any := false
	for local, id := range tasks {
		out[local] = res.Release[id]
		if out[local] > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// sliceWarm extracts the component-local warm seed, nil when cold.
func (res *Residual) sliceWarm(tasks []int, m model.Model) *core.WarmStart {
	if res == nil || res.Cold {
		return nil
	}
	ws := &core.WarmStart{}
	if m.Kind == model.VddHopping {
		if res.PrevProfiles == nil {
			return nil
		}
		ws.Profiles = make([]sched.Profile, len(tasks))
		for local, id := range tasks {
			ws.Profiles[local] = res.PrevProfiles[id]
		}
		return ws
	}
	if res.PrevSpeeds == nil {
		return nil
	}
	ws.Speeds = make([]float64, len(tasks))
	for local, id := range tasks {
		ws.Speeds[local] = res.PrevSpeeds[id]
	}
	return ws
}

// reusable reports whether the previous solution covers this component, so
// Replan may replay it verbatim when the component is clean.
func (res *Residual) reusable(tasks []int, m model.Model) bool {
	if res == nil {
		return false
	}
	if m.Kind == model.VddHopping {
		return res.PrevProfiles != nil
	}
	return res.PrevSpeeds != nil
}

// AnalyzeResidual builds the solve plan for a residual instance: Analyze's
// component split and classification, with release-bearing components
// re-routed to the release-aware solvers and every component carrying its
// slice of the previous solution as a warm seed. Execute solves everything;
// Replan solves only the dirty components.
func AnalyzeResidual(p *core.Problem, m model.Model, opts Options, res Residual) (*Plan, error) {
	n := p.G.N()
	if res.Release != nil && len(res.Release) != n {
		return nil, badPlan("%d release times for %d tasks", len(res.Release), n)
	}
	if res.PrevSpeeds != nil && len(res.PrevSpeeds) != n {
		return nil, badPlan("%d previous speeds for %d tasks", len(res.PrevSpeeds), n)
	}
	if res.PrevProfiles != nil && len(res.PrevProfiles) != n {
		return nil, badPlan("%d previous profiles for %d tasks", len(res.PrevProfiles), n)
	}
	return analyze(p, m, opts, &res)
}

// ComponentID indexes Plan.Components.
type ComponentID = int

// ReplanResult is the outcome of an incremental re-plan.
type ReplanResult struct {
	// Solution is the merged residual solution over every component.
	Solution *core.Solution
	// Resolved counts components that ran a solver; Reused counts
	// components replayed from the previous solution.
	Resolved, Reused int
	// WarmSeeded counts resolved components that carried a warm seed.
	WarmSeeded int
}

// Replan executes a residual plan incrementally: the dirty components (IDs
// into prev.Components) re-solve — warm-started from the previous solution
// unless the residual is Cold — and every other component replays its
// previous speeds verbatim. A clean component without previous data is
// treated as dirty. The merged solution covers the whole residual problem.
func Replan(prev *Plan, dirty []ComponentID) (*ReplanResult, error) {
	return ReplanEmit(prev, dirty, nil)
}

// ReplanEmit is Replan with a component-granular observer: emit (when
// non-nil) fires once per re-solved component the moment its solver
// succeeds — while other dirty components may still be solving — with the
// component's index into prev.Components and its standalone solution.
// Replayed (clean) components are not emitted; they carry no new
// information. emit runs on solver goroutines: it must be safe for
// concurrent use and should not block. The merged result is identical to
// Replan's.
func ReplanEmit(prev *Plan, dirty []ComponentID, emit func(i int, sol *core.Solution)) (*ReplanResult, error) {
	if prev == nil {
		return nil, badPlan("nil plan")
	}
	isDirty := make([]bool, len(prev.Components))
	for _, id := range dirty {
		if id < 0 || id >= len(prev.Components) {
			return nil, badPlan("component id %d out of range [0,%d)", id, len(prev.Components))
		}
		isDirty[id] = true
	}
	for i, cp := range prev.Components {
		if !cp.reusable {
			isDirty[i] = true
		}
	}

	out := &ReplanResult{}
	sols := make([]*core.Solution, len(prev.comps))
	var solveIdx []int
	for i := range prev.Components {
		if isDirty[i] {
			solveIdx = append(solveIdx, i)
			continue
		}
		sol, err := prev.reuseComponent(prev.comps[i], prev.Components[i])
		if err != nil {
			return nil, fmt.Errorf("plan: replaying clean component %d: %w", i, err)
		}
		sols[i] = sol
		out.Reused++
	}
	if len(solveIdx) > 0 {
		comps := make([]core.Component, len(solveIdx))
		for k, i := range solveIdx {
			comps[k] = prev.comps[i]
			if prev.Components[i].warm != nil {
				out.WarmSeeded++
			}
		}
		solved, err := core.SolveComponents(comps, prev.Workers, func(k int, c core.Component) (*core.Solution, error) {
			sol, err := prev.rt.Solve(c.Prob, prev.Components[solveIdx[k]])
			if err == nil && emit != nil {
				emit(solveIdx[k], sol)
			}
			return sol, err
		})
		if err != nil {
			return nil, err
		}
		for k, i := range solveIdx {
			sols[i] = solved[k]
		}
		out.Resolved = len(solveIdx)
	}
	merged, err := prev.mergeResidual(sols)
	if err != nil {
		return nil, err
	}
	out.Solution = merged
	return out, nil
}

// reuseComponent rebuilds a component's solution from the previous speeds
// or profiles without solving.
func (pl *Plan) reuseComponent(c core.Component, cp ComponentPlan) (*core.Solution, error) {
	m := pl.Model
	var s *sched.Schedule
	var err error
	if m.Kind == model.VddHopping {
		profiles := make([]sched.Profile, len(c.Tasks))
		for local, id := range c.Tasks {
			profiles[local] = pl.res.PrevProfiles[id]
		}
		s, err = sched.FromProfilesAt(c.Prob.G, profiles, cp.release)
	} else {
		speeds := make([]float64, len(c.Tasks))
		for local, id := range c.Tasks {
			speeds[local] = pl.res.PrevSpeeds[id]
		}
		s, err = sched.FromSpeedsAt(c.Prob.G, speeds, cp.release)
	}
	if err != nil {
		return nil, err
	}
	return &core.Solution{
		Model:    m,
		Schedule: s,
		Energy:   s.Energy,
		Stats: core.Stats{
			Algorithm:   "reclaim-reuse",
			Exact:       cp.BoundFactor == 1,
			BoundFactor: cp.BoundFactor,
		},
	}, nil
}

// mergeResidual stitches per-component residual solutions back onto the
// full residual graph with its release times (MergeSolutions' release-blind
// twin would misplace start times).
func (pl *Plan) mergeResidual(sols []*core.Solution) (*core.Solution, error) {
	p := pl.prob
	if len(pl.comps) == 1 && pl.comps[0].Prob == p {
		return sols[0], nil
	}
	profiles := make([]sched.Profile, p.G.N())
	st := core.Stats{Exact: true, BoundFactor: 1}
	var names []string
	seen := map[string]bool{}
	for ci, sol := range sols {
		if sol == nil || sol.Schedule == nil {
			return nil, fmt.Errorf("plan: component %d has no solution", ci)
		}
		for local, id := range pl.comps[ci].Tasks {
			profiles[id] = sol.Schedule.Profiles[local]
		}
		st.Nodes += sol.Stats.Nodes
		st.Pivots += sol.Stats.Pivots
		st.Newton += sol.Stats.Newton
		st.OuterStages += sol.Stats.OuterStages
		if sol.Stats.FrontierPeak > st.FrontierPeak {
			st.FrontierPeak = sol.Stats.FrontierPeak
		}
		st.Exact = st.Exact && sol.Stats.Exact
		if sol.Stats.BoundFactor > st.BoundFactor {
			st.BoundFactor = sol.Stats.BoundFactor
		}
		if !seen[sol.Stats.Algorithm] {
			seen[sol.Stats.Algorithm] = true
			names = append(names, sol.Stats.Algorithm)
		}
	}
	sort.Strings(names)
	st.Algorithm = fmt.Sprintf("replanned(%d components: %s)", len(pl.comps), strings.Join(names, ", "))
	var release []float64
	if pl.res != nil {
		release = pl.res.Release
	}
	s, err := sched.FromProfilesAt(p.G, profiles, release)
	if err != nil {
		return nil, err
	}
	if math.IsInf(st.BoundFactor, 1) {
		st.Exact = false
	}
	return &core.Solution{Model: pl.Model, Schedule: s, Energy: s.Energy, Stats: st}, nil
}
