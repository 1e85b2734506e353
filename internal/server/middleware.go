package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"
)

// exempt is a route's policy: the middleware steps it skips.
type exempt uint8

const (
	// exemptTimeout lets a request outlive the per-request timeout:
	// uploads, snapshots and replica bootstrap downloads legitimately
	// run for as long as the analysis or transfer takes.
	exemptTimeout exempt = 1 << iota
	// exemptAdmission keeps a route reachable under overload:
	// observability and replication are how an operator sees the
	// overload and how replicas stay close enough to fail over to.
	exemptAdmission
)

// serve wraps one route's handler in the server's only middleware. Per
// request it allocates one respWriter and, in order: admits or sheds
// the request (unless exempt, see WithAdmission), starts the timeout
// clock (unless exempt), runs the handler on the request goroutine,
// then recovers a panic, counts the answer under the route's metrics
// series and logs one line. Shed requests are logged but not counted
// per route; the admission counters carry them.
func (s *Server) serve(pattern string, ex exempt, next http.Handler) http.Handler {
	stats := s.metrics.route(pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &respWriter{ResponseWriter: w, start: time.Now()}
		ran := false
		defer func() {
			if v := recover(); v != nil {
				s.recovered(rw, r, v)
			}
			d := time.Since(rw.start)
			if ran {
				stats.observe(rw.status(), d)
			}
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rw.status(),
				"bytes", rw.bytes,
				"duration", d,
				"remote", r.RemoteAddr,
			)
		}()
		if s.admission != nil && ex&exemptAdmission == 0 {
			release, ok := s.admit(rw, r)
			if !ok {
				return
			}
			defer release()
		}
		if s.timeout > 0 && ex&exemptTimeout == 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			rw.deadline, _ = ctx.Deadline()
			r = r.WithContext(ctx)
		}
		ran = true
		next.ServeHTTP(rw, r)
		if rw.code == 0 {
			// The handler returned without writing: a timeout that
			// passed meanwhile still answers 503.
			rw.begin(http.StatusOK)
		}
	})
}

// recovered answers a handler panic. Before the first byte it logs the
// stack and answers 500 JSON instead of dropping the connection. Once
// the handler's response has started it aborts the connection with
// http.ErrAbortHandler, so a client never takes a partial body for a
// complete one; http.ErrAbortHandler itself keeps its net/http meaning.
func (s *Server) recovered(rw *respWriter, r *http.Request, v any) {
	if v == http.ErrAbortHandler { //nolint:errorlint // sentinel, by contract
		panic(v)
	}
	s.log.Error("panic in handler",
		"method", r.Method,
		"path", r.URL.Path,
		"panic", fmt.Sprint(v),
		"stack", string(debug.Stack()),
	)
	switch {
	case rw.timedOut:
		// The client already holds the whole timeout answer.
	case rw.code != 0:
		panic(http.ErrAbortHandler)
	default:
		writeError(rw, http.StatusInternalServerError, fmt.Errorf("internal server error"))
	}
}

// respWriter is the request-scoped writer every response passes
// through. It records the status and byte count the log line and the
// route metrics read, and enforces the per-request timeout without a
// second goroutine or a response buffer: the deadline is checked once,
// when the response is about to start (or the handler returns without
// writing). If it has passed, the handler's status, headers and body
// are replaced by the timeout 503 and its later writes fail with
// http.ErrHandlerTimeout. A handler that ignores its context therefore
// gets its 503 at its next write or return, not at the deadline;
// http.Server.WriteTimeout remains the backstop for one that never
// returns.
type respWriter struct {
	http.ResponseWriter
	start    time.Time
	deadline time.Time // zero when the request has no timeout
	code     int       // status sent; 0 until the response starts
	bytes    int64
	timedOut bool
}

// begin starts the response with code, unless the deadline has passed:
// then it sends the timeout answer instead and reports false.
func (w *respWriter) begin(code int) bool {
	if !w.deadline.IsZero() && !time.Now().Before(w.deadline) {
		w.deadline = time.Time{}
		// Drop every header the handler set: a stale Content-Length or
		// Content-Type must not describe the 503's body.
		clear(w.Header())
		writeBackpressure(w, http.StatusServiceUnavailable,
			time.Second, "timeout", "request timed out")
		w.timedOut = true
		return false
	}
	w.code = code
	return true
}

func (w *respWriter) WriteHeader(code int) {
	if w.timedOut || (w.code == 0 && !w.begin(code)) {
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.timedOut || (w.code == 0 && !w.begin(http.StatusOK)) {
		return 0, http.ErrHandlerTimeout
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// status returns the status sent, defaulting to 200 for a handler that
// never wrote.
func (w *respWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
