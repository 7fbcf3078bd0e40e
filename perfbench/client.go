package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// opRecord is one HTTP exchange: an op. An untraced window keeps none:
// each op is folded into the client's tally when it ends, so the
// benchmark's own memory does not grow with the ops a window completes.
// The traced window keeps every op, because the replay re-runs its body.
type opRecord struct {
	kind      string        // solve, stream, create, events, schedule, delete
	class     string        // the op class it counts under
	start     time.Time     // when the request was sent
	lat       time.Duration // until the full response (a stream's terminal event)
	first     time.Duration // stream: until the first event
	events    int           // stream: events received
	reqBytes  int
	respBytes int
	err       error

	// What the replay needs; body and the span IDs are set in the traced
	// window only.
	body    []byte
	session string
	trace   uint64
	spanID  uint64
}

// maxErrs is how many failures a tally keeps the message of.
const maxErrs = 5

// classTally is one op class's share of a window.
type classTally struct {
	ops int
	lat hist
}

// reclaimCounts adds up the outcomes of accepted completion events.
type reclaimCounts struct {
	events, replans, resolved, reused, warmSeeded int
}

// tally is what the client's ops add up to over a window. It is allocated
// before the window opens and does not grow during it.
type tally struct {
	ops, failed         int
	errs                []string // the first maxErrs failures
	reqBytes, respBytes int64

	lat          hist // every successful op
	classes      map[string]*classTally
	events       hist // successful events POSTs
	creates      hist // successful session creates
	first, tail  hist // successful streams: until the first event, then to the last
	streams      int
	streamEvents int
	reclaim      reclaimCounts
	components   int // plan components over the answers that carried a plan
	planned      int
}

func newTally(classes []string) *tally {
	t := &tally{errs: make([]string, 0, maxErrs), classes: make(map[string]*classTally, len(classes))}
	for _, c := range classes {
		t.classes[c] = &classTally{}
	}
	return t
}

func (t *tally) add(op *opRecord) {
	t.ops++
	t.reqBytes += int64(op.reqBytes)
	t.respBytes += int64(op.respBytes)
	if op.err != nil {
		t.failed++
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, fmt.Sprintf("%s op failed: %v", op.kind, op.err))
		}
		return
	}
	t.lat.add(op.lat)
	if c := t.classes[op.class]; c != nil {
		c.ops++
		c.lat.add(op.lat)
	}
	switch op.kind {
	case "events":
		t.events.add(op.lat)
	case "create":
		t.creates.add(op.lat)
	case "stream":
		t.streams++
		t.streamEvents += op.events
		t.first.add(op.first)
		t.tail.add(op.lat - op.first)
	}
}

func (t *tally) countPlan(r *solveResp) {
	if r.Plan != nil {
		t.planned++
		t.components += len(r.Plan.Components)
	}
}

// refCheck is an answer to re-solve through the library path after the
// run.
type refCheck struct {
	inst   instance
	energy float64
}

// maxRefs caps the answers the client keeps for the library-path
// re-solves in one window.
const maxRefs = 32

// client is one closed-loop caller on a single keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	req  []byte   // events body, reused
	cur  opRecord // the op in flight
	rec  *recorder
	t    *tally
	refs []refCheck
	keep bool        // traced window: keep every op for the replay
	ops  []opRecord  // the kept ops
	done func() bool // reports that the window has closed
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, req: make([]byte, 0, 4096)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reset starts a window that closes when done reports true: a fresh tally
// and room for the sampled answers. rec is nil outside the traced window.
func (c *client) reset(classes []string, rec *recorder, done func() bool) {
	c.t, c.rec, c.keep, c.ops, c.done = newTally(classes), rec, rec != nil, nil, done
	c.refs = make([]refCheck, 0, maxRefs)
}

func (c *client) addRef(rc refCheck) {
	if len(c.refs) < maxRefs {
		c.refs = append(c.refs, rc)
	}
}

// exchange sends one request and reads the whole response into c.buf.
func (c *client) exchange(op *opRecord, method, path string, body []byte) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	op.respBytes = c.buf.Len()
	return resp.StatusCode, err
}

// timed runs send as one op and returns it, still open for its checks;
// finish closes it.
func (c *client) timed(kind, class, session string, body []byte, send func(*opRecord) error) *opRecord {
	op := &c.cur
	*op = opRecord{kind: kind, class: class, reqBytes: len(body), session: session}
	t := c.rec.begin(0, 0, "op")
	if c.keep {
		op.body, op.trace, op.spanID = append([]byte(nil), body...), t.trace, t.id
	}
	op.start = time.Now()
	op.err = send(op)
	op.lat = time.Since(op.start)
	c.rec.end(t)
	return op
}

// finish adds a checked op to the tally and, in the traced window, keeps
// it. It returns the op's error.
func (c *client) finish(op *opRecord) error {
	c.t.add(op)
	if c.keep {
		c.ops = append(c.ops, *op)
	}
	return op.err
}

// do runs one op and records it. check, when non-nil, receives the 2xx
// response body and returns the op's check result.
func (c *client) do(kind, class, session, method, path string, body []byte, check func([]byte, *opRecord) error) error {
	var status int
	op := c.timed(kind, class, session, body, func(op *opRecord) (err error) {
		status, err = c.exchange(op, method, path, body)
		return err
	})
	switch {
	case op.err != nil:
	case status < 200 || status > 299:
		op.err = fmt.Errorf("%s %s: status %d: %.200s", method, path, status, c.buf.Bytes())
	case check != nil:
		op.err = check(c.buf.Bytes(), op)
	}
	return c.finish(op)
}

// run executes one item.
func (c *client) run(it item) {
	switch {
	case it.life != nil:
		c.lifecycle(it)
	case it.stream:
		c.stream(it)
	default:
		c.solve(it)
	}
}

// checkAnswer checks a solve answer and samples it for the reference
// re-solves.
func (c *client) checkAnswer(it item, r *solveResp) error {
	if err := checkSolve(it.inst, r); err != nil {
		return fmt.Errorf("solve check: %w", err)
	}
	c.t.countPlan(r)
	if it.ref {
		c.addRef(refCheck{inst: it.inst, energy: r.Energy})
	}
	return nil
}

func (c *client) solve(it item) {
	_ = c.do("solve", it.class, "", http.MethodPost, "/v1/solve", it.body, func(b []byte, _ *opRecord) error {
		var r solveResp
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		return c.checkAnswer(it, &r)
	})
}

type sseEvent struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

func (c *client) stream(it item) {
	var result json.RawMessage
	op := c.timed("stream", it.class, "", it.body, func(op *opRecord) (err error) {
		result, err = c.readStream(op, it.body)
		return err
	})
	if op.err == nil {
		var r solveResp
		if op.err = json.Unmarshal(result, &r); op.err == nil {
			op.err = c.checkAnswer(it, &r)
		}
	}
	_ = c.finish(op)
}

// readStream runs one POST /v1/solve/stream to its terminal event and
// returns the result event's data.
func (c *client) readStream(op *opRecord, body []byte) (json.RawMessage, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/solve/stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("stream: status %d: %.200s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	for seq := uint64(1); ; {
		line, err := br.ReadString('\n')
		op.respBytes += len(line)
		if err != nil {
			return nil, fmt.Errorf("stream ended without a terminal event: %w", err)
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if op.events == 0 {
			op.first = time.Since(op.start)
		}
		op.events++
		var ev sseEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, err
		}
		if ev.Seq != seq {
			return nil, fmt.Errorf("stream event %d arrived as seq %d", seq, ev.Seq)
		}
		seq++
		switch ev.Type {
		case "result":
			_, _ = io.Copy(io.Discard, br)
			return ev.Data, nil
		case "error":
			return nil, fmt.Errorf("stream error event: %s", ev.Data)
		}
	}
}

// lifecycle runs one reclaim session: create, the completion batches with
// a schedule fetch after each re-plan, a final schedule fetch and a
// delete. Completions run exactly their current planned durations except
// where the lifecycle's factors say otherwise. It stops early, deleting the
// session unrecorded, once the window closes.
func (c *client) lifecycle(it item) {
	var cr createResp
	err := c.do("create", "create", "", http.MethodPost, "/v1/sessions", it.body, func(b []byte, op *opRecord) error {
		if err := json.Unmarshal(b, &cr); err != nil {
			return err
		}
		if cr.Solve == nil {
			return errors.New("session create: no initial solve")
		}
		op.session = cr.SessionID
		return c.checkAnswer(it, cr.Solve)
	})
	if err != nil {
		return
	}
	path := "/v1/sessions/" + cr.SessionID
	deleted := false
	defer func() {
		if !deleted {
			// Cleanup of a lifecycle cut short is not an op.
			if req, err := http.NewRequest(http.MethodDelete, c.base+path, nil); err == nil {
				if resp, err := c.hc.Do(req); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	l, n := it.life, it.inst.g.n()
	planned := make([]float64, n)
	for t := range planned {
		for _, sg := range profileOf(cr.Solve, it.inst, t) {
			planned[t] += sg.Duration
		}
	}
	sent := make(map[int]float64, l.events)
	fetch := func() error {
		return c.do("schedule", "light", cr.SessionID, http.MethodGet, path+"/schedule", nil, func(b []byte, _ *opRecord) error {
			var sr scheduleResp
			if err := json.Unmarshal(b, &sr); err != nil {
				return err
			}
			if err := checkSchedule(it.inst, sent, &sr); err != nil {
				return fmt.Errorf("schedule check: %w", err)
			}
			for t, ts := range sr.TaskStates {
				if !ts.Completed {
					planned[t] = 0
					for _, sg := range ts.Profile {
						planned[t] += sg.Duration
					}
				}
			}
			return nil
		})
	}
	tasks := make([]int, 0, l.batch)
	durs := make([]float64, 0, l.batch)
	for lo := 0; lo < l.events; lo += l.batch {
		if c.done() {
			return
		}
		hi := min(lo+l.batch, l.events)
		tasks, durs = tasks[:0], durs[:0]
		class := "events"
		for t := lo; t < hi; t++ {
			tasks = append(tasks, t)
			durs = append(durs, planned[t]*l.factors[t])
			if l.factors[t] != 1 {
				class = "replan"
			}
		}
		c.req = encodeEvents(c.req[:0], tasks, durs)
		err := c.do("events", class, cr.SessionID, http.MethodPost, path+"/events", c.req, func(b []byte, _ *opRecord) error {
			var er eventsResp
			if err := json.Unmarshal(b, &er); err != nil {
				return err
			}
			if len(er.Results) != len(tasks) {
				return fmt.Errorf("events: %d results for %d events", len(er.Results), len(tasks))
			}
			for i, res := range er.Results {
				if res.Error != nil {
					return fmt.Errorf("event for task %d: %s: %s", tasks[i], res.Error.Code, res.Error.Message)
				}
				r := res.Result
				if r == nil {
					return fmt.Errorf("event for task %d: no result", tasks[i])
				}
				// Exactly the designed deviations re-plan.
				if deviates := l.factors[tasks[i]] != 1; r.Clean == deviates {
					return fmt.Errorf("event for task %d: clean=%v with duration factor %v", tasks[i], r.Clean, l.factors[tasks[i]])
				}
				c.t.reclaim.events++
				if !r.Clean {
					c.t.reclaim.replans++
				}
				c.t.reclaim.resolved += r.Resolved
				c.t.reclaim.reused += r.Reused
				c.t.reclaim.warmSeeded += r.WarmSeeded
			}
			if er.Infeasible || er.Remaining != n-hi {
				return fmt.Errorf("events: remaining %d infeasible %v after %d completions", er.Remaining, er.Infeasible, hi)
			}
			return nil
		})
		if err != nil {
			return
		}
		for i, t := range tasks {
			sent[t] = durs[i]
		}
		if class == "replan" {
			if c.done() || fetch() != nil {
				return
			}
		}
	}
	// The final fetch and the delete each run only while the window is open.
	if c.done() || fetch() != nil || c.done() {
		return
	}
	_ = c.do("delete", "light", cr.SessionID, http.MethodDelete, path, nil, nil)
	deleted = true
}
