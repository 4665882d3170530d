package api

import "fmt"

// Class partitions every service failure, mirroring the library's error
// taxonomy (ErrCompile/ErrSim/ErrInternal) plus the service-level
// conditions a network caller needs to tell apart. Each class has a
// fixed HTTP status; clients should dispatch on Class, not on status.
type Class string

// Error classes.
const (
	// ClassBadRequest: the request body was malformed or structurally
	// invalid (not JSON, unknown fields, missing source).
	ClassBadRequest Class = "bad_request"
	// ClassCompile: the program was rejected by the compiler
	// (parse/check/build/optimize, or invalid configuration).
	ClassCompile Class = "compile"
	// ClassSim: the program failed at run time (deadlock, livelock,
	// detected fault, resource limit).
	ClassSim Class = "sim"
	// ClassInternal: a bug in the service or library, never the
	// caller's fault.
	ClassInternal Class = "internal"
	// ClassOverload: the admission queue was full; retry after backoff
	// (the response carries Retry-After).
	ClassOverload Class = "overload"
	// ClassDeadline: the request exceeded its TimeoutMS budget.
	ClassDeadline Class = "deadline"
	// ClassNotFound: the named resource (trace ID, route) does not exist.
	ClassNotFound Class = "not_found"
	// ClassClosed: the service is shutting down.
	ClassClosed Class = "closed"
	// ClassUnavailable: the daemon could not be reached or returned an
	// unusable response (connection refused/reset, malformed body).
	// cashd never sends it; it is part of v1 for callers that classify
	// their own transport failures, and a retry may succeed.
	ClassUnavailable Class = "unavailable"
)

// HTTPStatus maps a class to its HTTP status code. Unknown classes map
// to 500 so a future class degrades safely.
func (c Class) HTTPStatus() int {
	switch c {
	case ClassBadRequest:
		return 400
	case ClassNotFound:
		return 404
	case ClassCompile, ClassSim:
		return 422
	case ClassOverload:
		return 429
	case ClassClosed, ClassUnavailable:
		return 503
	case ClassDeadline:
		return 504
	default:
		return 500
	}
}

// Error is the typed failure payload every non-2xx response carries.
// It implements the error interface, so a Go caller that decodes it can
// return it directly.
type Error struct {
	// Class is the failure class; dispatch on it.
	Class Class `json:"class"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Status echoes the HTTP status the server sent, for logs.
	Status int `json:"status,omitempty"`
	// RetryAfterMS, on ClassOverload, is the server's backoff hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Report carries a structured diagnosis when one exists (e.g. the
	// deadlock StuckReport rendering).
	Report string `json:"report,omitempty"`
}

// Error renders the class and message.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Class, e.Message) }

// Temporary reports whether retrying the identical request may succeed.
func (e *Error) Temporary() bool {
	return e.Class == ClassOverload || e.Class == ClassClosed || e.Class == ClassUnavailable
}
