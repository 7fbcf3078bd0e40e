package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/reclaim"
)

// The closed set of API error codes. Every non-2xx response (and every
// failed batch entry, session-event outcome, or streaming `error` event)
// carries exactly one of these in its APIError.Code — handlers return typed
// sentinel errors and the mapping to code + HTTP status lives here alone.
// TestErrorCodeTable asserts every endpoint × failure mode stays inside
// this set with its documented status.
type Code string

const (
	// CodeBadRequest: the request itself is invalid (malformed JSON, bad
	// graph, unknown model or algorithm, infeasible parameters).
	CodeBadRequest Code = "bad_request"
	// CodeBadEvent: a session completion event was rejected (unknown task,
	// duplicate, out of order, bad duration); the session is untouched.
	CodeBadEvent Code = "bad_event"
	// CodeSessionNotFound: unknown, deleted, or evicted session ID.
	CodeSessionNotFound Code = "session_not_found"
	// CodeSessionClosed: the session has completed every task.
	CodeSessionClosed Code = "session_closed"
	// CodeCapacity: the session store is at MaxSessions.
	CodeCapacity Code = "capacity"
	// CodeInfeasible: no schedule meets the deadline.
	CodeInfeasible Code = "infeasible"
	// CodeSearchLimit: an exact solver hit its search budget.
	CodeSearchLimit Code = "search_limit"
	// CodeOverloaded: the solve backlog is full across all tenants; retry
	// after the hinted delay.
	CodeOverloaded Code = "overloaded"
	// CodeTenantQuota: this tenant is at its fair-share quota while other
	// tenants are active; global capacity may remain. Retry after the
	// hinted delay.
	CodeTenantQuota Code = "tenant_quota"
	// CodeTimeout: the request exceeded its time budget.
	CodeTimeout Code = "timeout"
	// CodeCanceled: the client disconnected before the answer was ready.
	CodeCanceled Code = "canceled"
	// CodePayloadTooLarge: the request body exceeds MaxBodyBytes.
	CodePayloadTooLarge Code = "payload_too_large"
	// CodeUpgradeRequired: the endpoint requires a WebSocket upgrade.
	CodeUpgradeRequired Code = "upgrade_required"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal Code = "internal"
)

// Codes returns the full closed set, in documentation order.
func Codes() []Code {
	return []Code{
		CodeBadRequest, CodeBadEvent, CodeSessionNotFound, CodeSessionClosed,
		CodeCapacity, CodeInfeasible, CodeSearchLimit, CodeOverloaded,
		CodeTenantQuota, CodeTimeout, CodeCanceled, CodePayloadTooLarge,
		CodeUpgradeRequired, CodeInternal,
	}
}

// Status returns the HTTP status a code maps to. 499 is the nginx-style
// "client closed request" status.
func (c Code) Status() int {
	switch c {
	case CodeBadRequest, CodeBadEvent:
		return http.StatusBadRequest
	case CodeSessionNotFound:
		return http.StatusNotFound
	case CodeSessionClosed:
		return http.StatusConflict
	case CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeInfeasible, CodeSearchLimit:
		return http.StatusUnprocessableEntity
	case CodeUpgradeRequired:
		return http.StatusUpgradeRequired
	case CodeCapacity:
		return http.StatusServiceUnavailable
	case CodeOverloaded, CodeTenantQuota:
		// 429 (not 503): shedding is per-request admission control with a
		// Retry-After hint, not a down server.
		return http.StatusTooManyRequests
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// Transport-layer sentinels (the engine and session sentinels live next to
// their subsystems: ErrBadRequest, ErrOverloaded, ErrSessionNotFound, …).
var (
	// ErrPayloadTooLarge tags a request body that exceeds MaxBodyBytes.
	ErrPayloadTooLarge = errors.New("service: request body too large")
	// ErrUpgradeRequired tags a watch request that is not a WebSocket
	// upgrade.
	ErrUpgradeRequired = errors.New("service: this endpoint requires a WebSocket upgrade (Connection: Upgrade, Upgrade: websocket)")
)

// codeFor maps an error to its API code via the sentinel chain. Unknown
// errors are CodeInternal.
func codeFor(err error) Code {
	switch {
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	case errors.Is(err, reclaim.ErrBadEvent):
		return CodeBadEvent
	case errors.Is(err, reclaim.ErrSessionDone):
		return CodeSessionClosed
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, reclaim.ErrSessionClosed):
		// A closed session was removed from the store: a batch that
		// looked it up before the removal sees it as gone.
		return CodeSessionNotFound
	case errors.Is(err, ErrTooManySessions):
		return CodeCapacity
	case errors.Is(err, ErrPayloadTooLarge):
		return CodePayloadTooLarge
	case errors.Is(err, ErrUpgradeRequired):
		return CodeUpgradeRequired
	case errors.Is(err, ErrInfeasible):
		return CodeInfeasible
	case errors.Is(err, ErrSearchLimit):
		return CodeSearchLimit
	case errors.Is(err, ErrTenantQuota):
		return CodeTenantQuota
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// RetryAfterError decorates an admission rejection with a retry hint
// derived from the current queue depth. classify surfaces the hint in the
// error envelope (retry_after_ms) and writeError in the Retry-After
// header; errors.Is/As still see the underlying sentinel.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string { return e.Err.Error() }
func (e *RetryAfterError) Unwrap() error { return e.Err }

// classify maps an engine error to its HTTP status and stable wire error.
func classify(err error) (int, APIError) {
	code := codeFor(err)
	msg := err.Error()
	switch code {
	case CodeTimeout:
		msg = "solve exceeded its time budget"
	case CodeCanceled:
		msg = "request canceled"
	}
	apiErr := APIError{Code: string(code), Message: msg}
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		apiErr.RetryAfterMS = ra.After.Milliseconds()
	}
	return code.Status(), apiErr
}
