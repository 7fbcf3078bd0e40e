package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The histogram's quantiles stay within its 1% bucket width of the exact
// order statistics.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all hist
	var exact []float64
	for i := 0; i < 20000; i++ {
		d := time.Duration(math.Exp(rng.NormFloat64()) * float64(time.Millisecond))
		all.add(d)
		exact = append(exact, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		want := quantile(exact, q)
		got := all.quantileMs(q)
		if math.Abs(got-want) > 0.011*want {
			t.Errorf("q%.2f: got %.6f ms, exact %.6f ms", q, got, want)
		}
	}
	var empty hist
	if empty.quantileMs(0.5) != 0 {
		t.Error("empty histogram: want 0")
	}
}

// Recording into a histogram allocates nothing.
func TestHistAddNoAlloc(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(100, func() { h.add(1234 * time.Microsecond) }); n != 0 {
		t.Errorf("add allocates %v times", n)
	}
}

// Recording a successful op into a window's tally allocates nothing, so
// the client's memory stays constant however many ops a window completes.
func TestTallyAddNoAlloc(t *testing.T) {
	tl := newTally([]string{"a", "b"})
	op := &opRecord{kind: "stream", class: "a", lat: 3 * time.Millisecond, first: time.Millisecond, events: 4, reqBytes: 100, respBytes: 200}
	if n := testing.AllocsPerRun(100, func() { tl.add(op) }); n != 0 {
		t.Errorf("recording an op allocates %v times", n)
	}
	if tl.ops != 101 || tl.classes["a"].ops != 101 || tl.streams != 101 {
		t.Errorf("recorded %d ops, %d in class a, %d streams; want 101 each", tl.ops, tl.classes["a"].ops, tl.streams)
	}
}
