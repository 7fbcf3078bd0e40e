package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	repro "repro"
)

// replayer re-runs recorded ops in-process through each layer's public
// function, in server order, as child spans of the op's root span. Its
// engine sees the same traffic as the server's did, set-up included, so
// it hits and misses where the server did.
type replayer struct {
	rec      *recorder // spans of the traced window's ops
	setup    *recorder // spans of the set-up solves
	eng      *repro.Engine
	sessions map[string]*repro.ReclaimSession

	ops    int           // window ops replayed
	opTime time.Duration // summed client latency of the replayed window ops
	stats  []repro.Stats // Solution.Stats of every replayed plan execution
}

func newReplayer(rec *recorder) *replayer {
	return &replayer{rec: rec, setup: newRecorder(), eng: repro.NewEngine(repro.EngineOptions{}), sessions: make(map[string]*repro.ReclaimSession)}
}

// warm replays the set-up items' solve bodies into the replay engine. They
// are traced on their own recorder: for a workload whose window never
// reaches a layer behind the instance cache, these cold solves are where
// that layer is timed.
func (r *replayer) warm(items []item) error {
	rec := r.rec
	r.rec = r.setup
	defer func() { r.rec = rec }()
	for _, it := range items {
		root := r.rec.begin(0, 0, "op")
		op := &opRecord{kind: "solve", body: it.body, trace: root.trace, spanID: root.id}
		if err := r.solve(op, nil); err != nil {
			return err
		}
		r.rec.end(root)
	}
	return nil
}

// replay runs the traced window's ops in start order until budget runs
// out.
func (r *replayer) replay(traced []opRecord, budget time.Duration) error {
	ops := make([]*opRecord, len(traced))
	for i := range traced {
		ops[i] = &traced[i]
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	deadline := time.Now().Add(budget)
	for _, op := range ops {
		if time.Now().After(deadline) {
			break
		}
		if err := r.one(op); err != nil {
			return fmt.Errorf("replaying %s op: %w", op.kind, err)
		}
		r.ops++
		r.opTime += op.lat
	}
	for _, s := range r.sessions {
		s.Close()
	}
	return nil
}

// child times f as a span named name under op.
func (r *replayer) child(op *opRecord, name string, f func() error) error {
	t := r.rec.begin(op.trace, op.spanID, name)
	err := f()
	r.rec.end(t)
	return err
}

func (r *replayer) one(op *opRecord) error {
	switch op.kind {
	case "solve", "stream":
		return r.solve(op, nil)
	case "create":
		return r.solve(op, func(prob *repro.Problem, m repro.Model, sol *repro.Solution) error {
			s, err := repro.NewReclaimSession(prob, m, sol, repro.ReclaimOptions{Structures: r.eng.Structures()})
			if err != nil {
				return err
			}
			r.sessions[op.session] = s
			return nil
		})
	case "events":
		return r.events(op)
	case "delete":
		if s := r.sessions[op.session]; s != nil {
			s.Close()
			delete(r.sessions, op.session)
		}
	}
	return nil
}

// solve replays a solve or a session creation: decode, fingerprints, the
// engine, and, when the engine missed or a session needs the solution,
// analysis, execution and verification, then the response encode. open,
// when non-nil, receives the solved problem for a session.
func (r *replayer) solve(op *opRecord, open func(*repro.Problem, repro.Model, *repro.Solution) error) error {
	var req repro.SolveRequest
	if err := r.child(op, "service.decode", func() error { return json.Unmarshal(op.body, &req) }); err != nil {
		return err
	}
	_ = r.child(op, "graph.fingerprint", func() error { _ = req.Graph.Fingerprint(); return nil })
	_ = r.child(op, "graph.structural_fingerprint", func() error { _ = req.Graph.StructuralFingerprint(); return nil })
	var resp *repro.SolveResponse
	t := r.rec.begin(op.trace, op.spanID, "service.engine_miss")
	resp, err := r.eng.Solve(context.Background(), &req)
	if err == nil && resp.CacheHit {
		t.name = "service.engine_hit"
	}
	r.rec.end(t)
	if err != nil {
		return err
	}
	if !resp.CacheHit || open != nil {
		prob, err := repro.NewProblem(req.Graph, req.Deadline)
		if err != nil {
			return err
		}
		m, err := req.Model.Build()
		if err != nil {
			return err
		}
		var pl *repro.Plan
		if err := r.child(op, "plan.analyze", func() (err error) {
			pl, err = repro.Explain(prob, m, repro.PlanOptions{Structures: r.eng.Structures(), Workers: 1})
			return err
		}); err != nil {
			return err
		}
		var sol *repro.Solution
		if err := r.child(op, "plan.execute", func() (err error) {
			sol, err = pl.Execute()
			return err
		}); err != nil {
			return err
		}
		r.stats = append(r.stats, sol.Stats)
		if err := r.child(op, "core.verify", func() error { return prob.Verify(sol, 1e-9) }); err != nil {
			return err
		}
		if open != nil {
			if err := open(prob, m, sol); err != nil {
				return err
			}
		}
	}
	return r.child(op, "service.encode", func() error { _, err := json.Marshal(resp); return err })
}

// events replays a completion-event batch on the op's replay session.
func (r *replayer) events(op *opRecord) error {
	var req struct {
		Events []repro.CompletionEvent `json:"events"`
	}
	if err := r.child(op, "service.decode", func() error { return json.Unmarshal(op.body, &req) }); err != nil {
		return err
	}
	s := r.sessions[op.session]
	if s == nil {
		return fmt.Errorf("no replay session for %q", op.session)
	}
	results := make([]*repro.EventResult, 0, len(req.Events))
	for _, ev := range req.Events {
		if err := r.child(op, "reclaim.apply_event", func() error {
			res, err := s.ApplyEvent(ev)
			results = append(results, res)
			return err
		}); err != nil {
			return err
		}
	}
	return r.child(op, "service.encode", func() error { _, err := json.Marshal(results); return err })
}
