package main

import (
	"math"
	"strings"
	"testing"
)

// golden is the chain (3, 5) with D = 4 and smax = 2: both tasks run at
// speed 2, for energy 3·4 + 5·4 = 32.
func golden() (instance, solveResp) {
	in := instance{g: &dag{w: []float64{3, 5}, edges: [][2]int{{0, 1}}}, deadline: 4, model: modelSpec{kind: "continuous", smax: 2}}
	return in, solveResp{Energy: 32, Speeds: []float64{2, 2}}
}

func TestCheckSolveAcceptsTheGoldenAnswer(t *testing.T) {
	in, r := golden()
	if err := checkSolve(in, &r); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSolveRejectsWrongAnswers(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*instance, *solveResp)
		want   string
	}{
		"energy":     {func(_ *instance, r *solveResp) { r.Energy = 32.001 }, "energy"},
		"too slow":   {func(_ *instance, r *solveResp) { r.Speeds = []float64{1.9, 2} }, "deadline"},
		"above smax": {func(in *instance, r *solveResp) { in.model.smax = 1.5 }, "admissible"},
		"task count": {func(_ *instance, r *solveResp) { r.Speeds = r.Speeds[:1] }, "tasks"},
		"not a mode": {func(in *instance, r *solveResp) { in.model = modelSpec{kind: "discrete", modes: []float64{1, 3}} }, "admissible"},
		"work lost":  {func(_ *instance, r *solveResp) { r.Speeds = nil; r.Profiles = [][]segment{{{2, 1}}, {{2, 2.5}}} }, "weight"},
		"degraded":   {func(_ *instance, r *solveResp) { r.Degraded = true }, "degraded"},
	} {
		in, r := golden()
		tc.mutate(&in, &r)
		err := checkSolve(in, &r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error about %q", name, err, tc.want)
		}
	}
}

func TestCheckSolveAcceptsVddProfiles(t *testing.T) {
	// One task of weight 2 by D = 2 under modes {0.5, 2}: 2/3 time units at
	// speed 2 and 4/3 at speed 0.5, energy 8·2/3 + 0.125·4/3 = 5.5.
	in := instance{g: &dag{w: []float64{2}}, deadline: 2, model: modelSpec{kind: "vdd-hopping", modes: []float64{0.5, 2}}}
	r := solveResp{Energy: 5.5, Profiles: [][]segment{{{2, 2.0 / 3}, {0.5, 4.0 / 3}}}}
	if err := checkSolve(in, &r); err != nil {
		t.Fatal(err)
	}
}

// Chain and fork answers must match the Theorem 1 closed forms.
func TestCheckSolveAppliesTheorem1(t *testing.T) {
	// Fork: source 1, children 1 and 1 by D = 2: (2^⅓ + 1)³/4.
	in := instance{g: &dag{w: []float64{1, 1, 1}, edges: [][2]int{{0, 1}, {0, 2}}}, family: "fork", deadline: 2, model: modelSpec{kind: "continuous", smax: 100}}
	c := math.Cbrt(2)
	s0 := (c + 1) / 2
	r := solveResp{Energy: math.Pow(c+1, 3) / 4, Speeds: []float64{s0, s0 / c, s0 / c}}
	if err := checkSolve(in, &r); err != nil {
		t.Fatal(err)
	}
	// Uniform speeds meet the deadline with the right schedule energy but
	// are not optimal: the closed form rejects them.
	r = solveResp{Speeds: []float64{1, 1, 1}, Energy: 3}
	if err := checkSolve(in, &r); err == nil || !strings.Contains(err.Error(), "Theorem 1") {
		t.Fatalf("got %v, want a Theorem 1 mismatch", err)
	}
	in, r = golden()
	in.family = "chain"
	if err := checkSolve(in, &r); err != nil {
		t.Fatalf("golden chain: %v", err)
	}
}
