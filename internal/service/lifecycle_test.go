package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/reclaim"
	"repro/internal/workload"
)

// fiveChainBody is a 5-task chain with uniform slack: weight 2 each,
// smax 2, deadline 12.5 → the optimum runs every task at 0.8 for 2.5.
const fiveChainBody = `{"graph":{"tasks":[{"weight":2},{"weight":2},{"weight":2},{"weight":2},{"weight":2}],"edges":[[0,1],[1,2],[2,3],[3,4]]},"deadline":12.5,"model":{"kind":"continuous","smax":2}}`

func mkSession(t *testing.T, st *SessionStore, body string) *SessionResponse {
	t.Helper()
	var req SessionRequest
	if err := json.Unmarshal([]byte(body), &req.SolveRequest); err != nil {
		t.Fatal(err)
	}
	resp, err := st.Create(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionEvictionUnderStorm regresses the capacity leak: finished
// sessions used to pin MaxSessions forever, so sustained churn ended in
// a permanent 503 once MaxSessions distinct sessions had ever existed.
// Now the reserve path sweeps finished sessions under capacity pressure,
// so churn far past MaxSessions keeps succeeding.
func TestSessionEvictionUnderStorm(t *testing.T) {
	st := NewSessionStore(NewEngine(Options{}), SessionConfig{
		MaxSessions: 3,
		IdleTTL:     time.Hour, // only the pressure sweep may evict here
		FinishedTTL: time.Hour,
	})
	ctx := context.Background()
	const churn = 10
	for i := 0; i < churn; i++ {
		sess := mkSession(t, st, chainSessionBody)
		// Complete every task on plan and walk away without deleting.
		for task := 0; task < 4; task++ {
			if _, err := st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{{Task: task, ActualDuration: 2.5}}); err != nil {
				t.Fatalf("session %d task %d: %v", i, task, err)
			}
		}
	}
	stats := st.Stats()
	if stats.Live > 3 {
		t.Fatalf("%d live sessions exceed MaxSessions 3", stats.Live)
	}
	if want := uint64(churn - 3); stats.EvictedFinished < want {
		t.Fatalf("EvictedFinished = %d, want at least %d (stats %+v)", stats.EvictedFinished, want, stats)
	}
	if stats.Evicted != stats.EvictedFinished+stats.EvictedIdle {
		t.Fatalf("Evicted %d does not total its split: %+v", stats.Evicted, stats)
	}
}

// TestSessionIdleEviction covers the other leak: an abandoned session —
// created, never finished, never touched again — must fall to the idle
// TTL instead of occupying capacity forever.
func TestSessionIdleEviction(t *testing.T) {
	st := NewSessionStore(NewEngine(Options{}), SessionConfig{
		MaxSessions: 2,
		IdleTTL:     30 * time.Millisecond,
		FinishedTTL: time.Hour,
	})
	a := mkSession(t, st, chainSessionBody)
	mkSession(t, st, chainSessionBody)
	// Both sessions are unfinished and fresh: capacity is genuinely full.
	var req SessionRequest
	if err := json.Unmarshal([]byte(chainSessionBody), &req.SolveRequest); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(context.Background(), &req); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("fresh unfinished sessions must hold capacity, got %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	// Past the idle TTL the pressure sweep reclaims both abandoned
	// sessions and the create succeeds.
	if _, err := st.Create(context.Background(), &req); err != nil {
		t.Fatalf("create after idle TTL: %v", err)
	}
	if stats := st.Stats(); stats.EvictedIdle < 2 {
		t.Fatalf("EvictedIdle = %d, want 2 (stats %+v)", stats.EvictedIdle, stats)
	}
	if _, err := st.Schedule(a.SessionID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("evicted session still answers: %v", err)
	}
}

// TestSessionDeleteDuringEvents regresses the ghost-write bug: a batch
// that looked its session up before a concurrent Delete used to keep
// mutating the removed session. The engine pool doubles as a
// synchronization point — Workers is 1 and the only slot is held by the
// test, so the batch's first deviating event is parked in the pool gate
// while Delete lands; the batch must then fail its remaining events with
// session_not_found. Run under -race, this also proves the close
// handshake is properly synchronized.
func TestSessionDeleteDuringEvents(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	st := NewSessionStore(e, SessionConfig{MaxSessions: 4})
	sess := mkSession(t, st, fiveChainBody)

	e.sem <- struct{}{} // occupy the only pool slot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type outcome struct {
		resp *SessionEventsResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{
			{Task: 0, ActualDuration: 1.0}, // deviating: parks in the pool gate
			{Task: 1, ActualDuration: 1.0},
			{Task: 2, ActualDuration: 1.0},
		})
		done <- outcome{resp, err}
	}()
	// The gate takes its admission token before it blocks on the pool.
	waitFor(t, "batch parked in the pool gate", func() bool { return e.adm.Depth() == 1 })
	if err := st.Delete(sess.SessionID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	<-e.sem // release the pool: the parked replan proceeds
	out := <-done
	if out.err != nil {
		t.Fatalf("events: %v", out.err)
	}
	checkBatchCutByDelete(t, out.resp)
	if _, err := st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{{Task: 3, ActualDuration: 1}}); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("deleted session still accepts batches: %v", err)
	}
	if got := e.adm.Depth(); got != 0 {
		t.Fatalf("backlog leaked %d tokens across the gated batch", got)
	}
}

// checkBatchCutByDelete asserts the outcome of a three-event batch whose
// first event was parked in the pool gate while its session was deleted:
// that event is recorded, the other two fail with session_not_found.
func checkBatchCutByDelete(t *testing.T, resp *SessionEventsResponse) {
	t.Helper()
	results := resp.Results
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	if results[0].Result == nil {
		t.Fatalf("event 0 was accepted before the delete; its completion must be recorded: %+v", results[0])
	}
	for i := 1; i < 3; i++ {
		if results[i].Result != nil || results[i].Error == nil || results[i].Error.Code != "session_not_found" {
			t.Fatalf("event %d after the delete = %+v, want session_not_found and no result", i, results[i])
		}
	}
}

// TestEventsRacingDeleteReleaseEveryPin regresses the structure-pin
// release race. Delete closes the session off the store lock, so the
// pins are released only when that Close returns: the closing gauge
// counts it, and a leak check must wait on that gauge, not on time. The
// batch's first event is parked in the pool gate (Workers is 1 and the
// test holds the only slot) while it holds the session lock, so Close is
// stuck behind it and the gauge reads exactly 1. The parked replan then
// pins its residual structure; Close must release that pin too. Close is
// terminal: an event that reaches the closed session afterwards — a batch
// that looked it up just before the delete — must neither replan nor
// re-pin.
func TestEventsRacingDeleteReleaseEveryPin(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	st := NewSessionStore(e, SessionConfig{MaxSessions: 4})
	sess := mkSession(t, st, fiveChainBody)
	entry, err := st.lookup(sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if e.Structures().Pinned() == 0 {
		t.Fatal("a live session must pin its structure")
	}

	e.sem <- struct{}{} // occupy the only pool slot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan *SessionEventsResponse, 1)
	go func() {
		resp, err := st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{
			{Task: 0, ActualDuration: 1.0}, // deviating: parks in the pool gate
			{Task: 1, ActualDuration: 1.0},
			{Task: 2, ActualDuration: 1.0},
		})
		if err != nil {
			t.Errorf("events: %v", err)
		}
		done <- resp
	}()
	waitFor(t, "batch parked in the pool gate", func() bool { return e.adm.Depth() == 1 })
	if err := st.Delete(sess.SessionID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := st.Stats().Closing; got != 1 {
		t.Fatalf("closing gauge = %d while Close waits behind the parked batch, want 1", got)
	}
	<-e.sem // release the pool: the parked replan runs and pins its residual
	resp := <-done
	if resp == nil {
		t.FailNow()
	}
	checkBatchCutByDelete(t, resp)
	if resp.Results[0].Result.Clean {
		t.Fatal("the parked event must have replanned")
	}
	waitFor(t, "session close drain", func() bool { return st.Stats().Closing == 0 })
	if n := e.Structures().Pinned(); n != 0 {
		t.Fatalf("%d structure pins leaked after the close drained", n)
	}

	// A deviating event on the closed session is refused before any replan.
	if _, err := entry.sess.ApplyEvent(reclaim.CompletionEvent{Task: 1, ActualDuration: 1.0}); !errors.Is(err, reclaim.ErrSessionClosed) {
		t.Fatalf("event on a closed session: %v, want ErrSessionClosed", err)
	}
	if n := e.Structures().Pinned(); n != 0 {
		t.Fatalf("closed session re-pinned %d structures", n)
	}
}

// TestCleanEventsSkipEnginePool regresses the pool hogging: a batch used
// to hold a worker slot for its whole duration even when every event was
// clean. Clean events must complete while the pool is saturated; only a
// deviating event's re-solve waits on (and times out against) the pool.
func TestCleanEventsSkipEnginePool(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	st := NewSessionStore(e, SessionConfig{MaxSessions: 4})
	sess := mkSession(t, st, fiveChainBody)

	e.sem <- struct{}{} // saturate the pool
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// On-plan completions never touch the pool: they must succeed
	// immediately even though no slot is free.
	for task := 0; task < 2; task++ {
		resp, err := st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{{Task: task, ActualDuration: 2.5}})
		if err != nil {
			t.Fatalf("clean event %d with a saturated pool: %v", task, err)
		}
		if r := resp.Results[0]; r.Error != nil || r.Result == nil || !r.Result.Clean {
			t.Fatalf("clean event %d outcome: %+v", task, r)
		}
	}
	// A deviating event needs a slot for its re-solve: with the pool
	// saturated it must time out against the caller's budget — completion
	// recorded, re-solve deferred — not hang or steal the slot.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer shortCancel()
	resp, err := st.Events(shortCtx, sess.SessionID, []reclaim.CompletionEvent{{Task: 2, ActualDuration: 1.0}})
	if err != nil {
		t.Fatalf("deviating event: %v", err)
	}
	if r := resp.Results[0]; r.Result == nil || r.Error == nil || r.Error.Code != "timeout" {
		t.Fatalf("gated deviation outcome: %+v, want recorded completion plus timeout", r)
	}
	if got := st.engine.adm.Depth(); got != 0 {
		t.Fatalf("backlog leaked %d tokens on gate timeout", got)
	}
	if stats := reclaimStats(t, st, sess.SessionID); stats.Replans != 0 {
		t.Fatalf("replans ran with a saturated pool: %+v", stats)
	}
	<-e.sem // free the pool
	// The next deviating event retries the deferred re-solve and wins a
	// slot normally.
	resp, err = st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{{Task: 3, ActualDuration: 1.0}})
	if err != nil {
		t.Fatalf("deviating event with a free pool: %v", err)
	}
	if r := resp.Results[0]; r.Error != nil || r.Result == nil {
		t.Fatalf("replan outcome: %+v", r)
	}
	if stats := reclaimStats(t, st, sess.SessionID); stats.Replans == 0 {
		t.Fatal("no replan ran after the pool freed up")
	}
	if got := e.adm.Depth(); got != 0 {
		t.Fatalf("backlog leaked %d tokens", got)
	}
}

func reclaimStats(t *testing.T, st *SessionStore, id string) reclaim.Stats {
	t.Helper()
	s, err := st.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	return s.Stats
}

// TestHTTPOptionsDefaultsSessionLifecycle pins the Defaults contract for
// the session fields: MaxSessions used to be skipped entirely, leaving
// derived consumers (flag plumbing, ops dashboards) to re-implement the
// handler's fallback.
func TestHTTPOptionsDefaultsSessionLifecycle(t *testing.T) {
	d := HTTPOptions{}.Defaults()
	if d.MaxSessions != 1024 {
		t.Fatalf("MaxSessions default = %d, want 1024", d.MaxSessions)
	}
	if d.SessionIdleTTL != 10*time.Minute {
		t.Fatalf("SessionIdleTTL default = %v, want 10m", d.SessionIdleTTL)
	}
	if d.SessionFinishedTTL != 30*time.Second {
		t.Fatalf("SessionFinishedTTL default = %v, want 30s", d.SessionFinishedTTL)
	}
	keep := HTTPOptions{MaxSessions: 7, SessionIdleTTL: time.Minute, SessionFinishedTTL: time.Second}.Defaults()
	if keep.MaxSessions != 7 || keep.SessionIdleTTL != time.Minute || keep.SessionFinishedTTL != time.Second {
		t.Fatalf("explicit session options were overwritten: %+v", keep)
	}
}

// TestSessionEventsTimeoutMS pins the timeout_ms plumbing of the events
// endpoint end to end: a 1 ms budget over a batch of deviating events on
// an instance whose residual re-solves take well over 1 ms must report
// per-event timeouts instead of running the whole batch on the server
// default budget.
func TestSessionEventsTimeoutMS(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	g, err := workload.FromSeed("gnp", 100, 3, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < g.N(); i++ {
		total += g.Weight(i)
	}
	gj, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	// The initial interior-point solve is slow under -race: give the
	// create request its own generous budget instead of the 30s default.
	body := fmt.Sprintf(`{"graph":%s,"deadline":%g,"model":{"kind":"continuous","smax":2},"timeout_ms":110000}`, gj, total)
	sess := createSession(t, srv.URL, body)

	// Tasks 0..2 in index order respect precedence (family edges point
	// forward); duration 1.0 deviates from every optimum duration, so
	// each event wants a residual re-solve of a ~100-task general DAG —
	// far more than the 1 ms budget allows.
	evBody := `{"timeout_ms":1,"events":[
		{"task":0,"actual_duration":1},
		{"task":1,"actual_duration":1},
		{"task":2,"actual_duration":1}
	]}`
	resp, data := postJSON(t, srv.URL+"/v1/sessions/"+sess.SessionID+"/events", evBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d: %s", resp.StatusCode, data)
	}
	var ev SessionEventsResponse
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(ev.Results))
	}
	timeouts := 0
	for i, item := range ev.Results {
		if item.Error != nil {
			if item.Error.Code != "timeout" {
				t.Fatalf("event %d error code %q, want timeout (%s)", i, item.Error.Code, data)
			}
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatalf("a 1 ms budget over three ~100-task re-solves produced no timeout: %s", data)
	}
}
