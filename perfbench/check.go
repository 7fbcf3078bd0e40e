package main

import (
	"errors"
	"fmt"
	"math"
)

// The client decodes responses into these minimal structs of its own, so a
// change to the program's wire types cannot change what is checked.

type segment struct {
	Speed    float64 `json:"speed"`
	Duration float64 `json:"duration"`
}

type solveResp struct {
	Energy   float64     `json:"energy"`
	Speeds   []float64   `json:"speeds"`
	Profiles [][]segment `json:"profiles"`
	Degraded bool        `json:"degraded"`
	Plan     *struct {
		Components []struct {
			Class string `json:"class"`
		} `json:"components"`
	} `json:"plan"`
}

type createResp struct {
	SessionID string     `json:"session_id"`
	Solve     *solveResp `json:"solve"`
}

// eventResult is one completion's outcome.
type eventResult struct {
	Clean      bool `json:"clean"`
	Resolved   int  `json:"resolved_components"`
	Reused     int  `json:"reused_components"`
	WarmSeeded int  `json:"warm_seeded_components"`
}

type eventsResp struct {
	Results []struct {
		Result *eventResult `json:"result"`
		Error  *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	} `json:"results"`
	Remaining  int  `json:"remaining"`
	Infeasible bool `json:"infeasible"`
}

type scheduleResp struct {
	Tasks          int     `json:"tasks"`
	Remaining      int     `json:"remaining"`
	IncurredEnergy float64 `json:"incurred_energy"`
	ResidualEnergy float64 `json:"residual_energy"`
	TotalEnergy    float64 `json:"total_energy"`
	Infeasible     bool    `json:"infeasible"`
	TaskStates     []struct {
		Task      int       `json:"task"`
		Completed bool      `json:"completed"`
		Start     float64   `json:"start"`
		Finish    float64   `json:"finish"`
		Profile   []segment `json:"profile"`
	} `json:"task_states"`
}

// Tolerances of the output checks.
const (
	deadlineTol = 1e-9 // makespan ≤ deadline·(1+deadlineTol)
	energyTol   = 1e-9 // reported vs recomputed energy, relative
	workTol     = 1e-6 // Σ speed·duration vs weight, relative
	refTol      = 1e-6 // server vs library-path energy, relative
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// admissible reports whether speed s is allowed by model m.
func admissible(m modelSpec, s float64) bool {
	if !(s > 0) || math.IsInf(s, 0) {
		return false
	}
	switch m.kind {
	case "continuous":
		return s <= m.smax*(1+deadlineTol)
	case "incremental":
		if s < m.smin*(1-deadlineTol) || s > m.smax*(1+deadlineTol) {
			return false
		}
		k := (s - m.smin) / m.delta
		return math.Abs(k-math.Round(k)) <= workTol
	default: // discrete and vdd-hopping: one of the modes
		for _, mode := range m.modes {
			if relDiff(s, mode) <= deadlineTol {
				return true
			}
		}
		return false
	}
}

// profileOf returns task t's profile from either wire form.
func profileOf(r *solveResp, in instance, t int) []segment {
	if r.Speeds != nil {
		s := r.Speeds[t]
		return []segment{{Speed: s, Duration: in.g.w[t] / s}}
	}
	return r.Profiles[t]
}

// checkProfile checks that p runs task weight w at admissible speeds and
// returns its duration and energy.
func checkProfile(m modelSpec, w float64, p []segment) (dur, energy float64, err error) {
	if len(p) == 0 {
		return 0, 0, errors.New("empty profile")
	}
	work := 0.0
	for _, sg := range p {
		if !admissible(m, sg.Speed) || sg.Duration < 0 {
			return 0, 0, fmt.Errorf("speed %v for %v is not admissible under %s", sg.Speed, sg.Duration, m.kind)
		}
		dur += sg.Duration
		work += sg.Speed * sg.Duration
		energy += sg.Speed * sg.Speed * sg.Speed * sg.Duration
	}
	if relDiff(work, w) > workTol {
		return 0, 0, fmt.Errorf("profile executes %v of weight %v", work, w)
	}
	return dur, energy, nil
}

// checkSolve validates a solve response against its instance: admissible
// speeds or profiles, a recomputed makespan within the deadline, and the
// reported energy equal to the energy of the returned schedule.
func checkSolve(in instance, r *solveResp) error {
	n := in.g.n()
	if r.Speeds == nil && len(r.Profiles) != n || r.Speeds != nil && len(r.Speeds) != n {
		return fmt.Errorf("%d speeds and %d profiles for %d tasks", len(r.Speeds), len(r.Profiles), n)
	}
	dur := make([]float64, n)
	energy := 0.0
	for t := 0; t < n; t++ {
		d, e, err := checkProfile(in.model, in.g.w[t], profileOf(r, in, t))
		if err != nil {
			return fmt.Errorf("task %d: %v", t, err)
		}
		dur[t] = d
		energy += e
	}
	if mk := longestPath(in.g, dur); mk > in.deadline*(1+deadlineTol) {
		return fmt.Errorf("makespan %v exceeds deadline %v", mk, in.deadline)
	}
	if relDiff(energy, r.Energy) > energyTol {
		return fmt.Errorf("reported energy %v, schedule accounts %v", r.Energy, energy)
	}
	if r.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if in.model.kind == "continuous" {
		if want, ok := theorem1(in); ok && relDiff(r.Energy, want) > energyTol {
			return fmt.Errorf("energy %v, Theorem 1 closed form %v", r.Energy, want)
		}
	}
	return nil
}

// theorem1 returns the optimal continuous energy of a chain or a fork by
// the closed forms of Theorem 1, when smax does not bind: a chain of total
// weight W runs at W/D for energy W³/D², and a fork with source weight w₀
// runs its source at ((Σwᵢ³)^⅓ + w₀)/D for energy ((Σwᵢ³)^⅓ + w₀)³/D².
// It reports false for other families and when the optimal speed would
// exceed smax.
func theorem1(in instance) (float64, bool) {
	g, d := in.g, in.deadline
	var eq float64
	switch in.family {
	case "chain":
		eq = g.totalWeight()
	case "fork":
		cubes := 0.0
		for _, w := range g.w[1:] {
			cubes += w * w * w
		}
		eq = math.Cbrt(cubes) + g.w[0]
	default:
		return 0, false
	}
	if eq/d > in.model.smax {
		return 0, false
	}
	return eq * eq * eq / (d * d), true
}

// checkSchedule validates a session's schedule after the events in sent
// (task → actual duration): completed tasks took exactly their reported
// durations, remaining tasks run admissible profiles, precedences hold,
// the makespan is within the deadline, and the energy totals add up.
func checkSchedule(in instance, sent map[int]float64, r *scheduleResp) error {
	n := in.g.n()
	if r.Tasks != n || len(r.TaskStates) != n {
		return fmt.Errorf("schedule has %d tasks (%d states), instance %d", r.Tasks, len(r.TaskStates), n)
	}
	if r.Infeasible {
		return errors.New("session reports an infeasible residual")
	}
	if r.Remaining != n-len(sent) {
		return fmt.Errorf("remaining %d after %d of %d completions", r.Remaining, len(sent), n)
	}
	preds := in.g.preds()
	energy, makespan := 0.0, 0.0
	for t, ts := range r.TaskStates {
		actual, done := sent[t]
		if ts.Task != t || ts.Completed != done {
			return fmt.Errorf("task %d: state for task %d completed=%v", t, ts.Task, ts.Completed)
		}
		dur, e := 0.0, 0.0
		for _, sg := range ts.Profile {
			dur += sg.Duration
			e += sg.Speed * sg.Speed * sg.Speed * sg.Duration
		}
		if done {
			if relDiff(dur, actual) > workTol {
				return fmt.Errorf("task %d ran %v, reported %v", t, dur, actual)
			}
		} else if _, _, err := checkProfile(in.model, in.g.w[t], ts.Profile); err != nil {
			return fmt.Errorf("task %d: %v", t, err)
		}
		if relDiff(ts.Finish-ts.Start, dur) > workTol {
			return fmt.Errorf("task %d spans [%v, %v] for a %v profile", t, ts.Start, ts.Finish, dur)
		}
		for _, u := range preds[t] {
			if ts.Start < r.TaskStates[u].Finish-workTol*math.Max(1, in.deadline) {
				return fmt.Errorf("task %d starts at %v before predecessor %d ends at %v", t, ts.Start, u, r.TaskStates[u].Finish)
			}
		}
		energy += e
		makespan = math.Max(makespan, ts.Finish)
	}
	if makespan > in.deadline*(1+deadlineTol) {
		return fmt.Errorf("makespan %v exceeds deadline %v", makespan, in.deadline)
	}
	if relDiff(energy, r.TotalEnergy) > energyTol || relDiff(r.IncurredEnergy+r.ResidualEnergy, r.TotalEnergy) > energyTol {
		return fmt.Errorf("total energy %v, incurred+residual %v, profiles %v", r.TotalEnergy, r.IncurredEnergy+r.ResidualEnergy, energy)
	}
	return nil
}
