package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/solve"
)

// maxBodyBytes bounds request bodies (a 4-task, 10k-step instance is
// well under 2 MiB).
const maxBodyBytes = 16 << 20

// Handler returns the HTTP API:
//
//	POST   /v1/jobs           submit; 202 queued, 200 if answered from cache
//	GET    /v1/jobs/{id}      poll status (result inline once done)
//	GET    /v1/jobs/{id}/wait long-poll until terminal or ?timeout_ms elapses
//	DELETE /v1/jobs/{id}      cancel (queued or running)
//	POST   /v1/solve          submit and wait for the terminal state
//	GET    /v1/solvers        registered solver names, kinds and option ranges
//	GET    /healthz           liveness
//	GET    /metrics           Prometheus text format
//
// plus the streaming-session API:
//
//	POST   /v1/sessions                open a session (solves the initial trace)
//	GET    /v1/sessions/{id}           session status with the current schedule
//	POST   /v1/sessions/{id}/steps     append (or amend) a batch of demand rows
//	GET    /v1/sessions/{id}/schedule  long-poll past ?generation=N for a newer schedule
//	DELETE /v1/sessions/{id}           close the session
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/steps", s.handleSessionSteps)
	mux.HandleFunc("GET /v1/sessions/{id}/schedule", s.handleSessionSchedule)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthzV1)
	mux.HandleFunc("GET /v1/cache/{key}", s.handlePeerCache)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is the one JSON error shape every non-2xx response
// carries: the message, plus the retry hint in milliseconds whenever a
// Retry-After header accompanies it (429 queue-full, 503 open breaker).
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if st, ok := v.(resultStatus); ok {
		writeStatus(w, st)
		return
	}
	json.NewEncoder(w).Encode(v)
}

// resultStatus is a status whose last two fields are Result and Error,
// in that order: JobStatus and SessionStatus.
type resultStatus interface {
	// splitResult returns a copy of the status without result and
	// error, and the two.
	splitResult() (envelope any, ws *WireSolution, errText string)
}

// writeStatus writes the bytes json.NewEncoder(w).Encode(st) writes,
// without encoding or scanning the result again: it encodes the
// envelope without result and error, then splices the result's
// rendered bytes in where encoding/json puts the field, followed by
// the error.  A status without a rendered result is encoded as usual.
func writeStatus(w io.Writer, st resultStatus) error {
	env, ws, errText := st.splitResult()
	if ws == nil || ws.raw == nil {
		return json.NewEncoder(w).Encode(st)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(env); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - len("}\n"))
	buf.WriteString(`,"result":`)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(ws.raw); err != nil {
		return err
	}
	buf.Reset()
	if errText != "" {
		buf.WriteString(`,"error":`)
		if err := enc.Encode(errText); err != nil {
			return err
		}
		buf.Truncate(buf.Len() - len("\n"))
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeRetryError is writeError plus the retry hint, rendered both as
// the Retry-After header (whole seconds, rounded up) and as
// retry_after_ms in the body.
func writeRetryError(w http.ResponseWriter, code int, err error, d time.Duration) {
	retryAfterHeader(w, d)
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	writeJSON(w, code, errorBody{Error: err.Error(), RetryAfterMS: ms})
}

// decodeBody decodes exactly one JSON value from body into v.  Like
// json.Unmarshal, and so like the cluster router, it rejects anything
// but whitespace after the value; the decoder's More would miss a
// stray ']', so the next token must be io.EOF.  Any input comes back
// as a value or an error, never a panic (FuzzSolveRequest).  It is
// the decode of every body outside decodeCanonical's subset.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch tok, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("invalid data after top-level value: %v", tok)
	}
}

// decodeRequest decodes one POST body into the zero value v: in one
// pass when the body is in the canonical subset, else through
// decodeBody.  Either way the result is json.Unmarshal's.  The body is
// copied into one string, which the decoded requirement cells share.
func decodeRequest(body []byte, v any) error {
	if decodeCanonical(string(body), v) {
		return nil
	}
	return decodeBody(bytes.NewReader(body), v)
}

// bodyPresize caps the read buffer that a request's Content-Length
// sizes up front; a larger body grows the buffer with the bytes that
// actually arrive.
const bodyPresize = 64 << 10

// readAll reads r to EOF, like io.ReadAll, into a buffer presized from
// contentLength up to bodyPresize.  io.ReadAll starts at 512 bytes and
// would reallocate exact-cold's 43 KiB bodies a dozen times.
func readAll(r io.Reader, contentLength int64) ([]byte, error) {
	size := 512
	if contentLength > 0 {
		size = int(min(contentLength, bodyPresize)) + 1 // +1: the read that sees EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readBody decodes a POST body into v under the maxBodyBytes limit.
// It answers 413 for an oversized body and 400 for anything that is
// not exactly one JSON value of v's shape, and reports whether v was
// filled.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readAll(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		err = decodeRequest(body, v)
	} else {
		// The bytes that arrived, then the read error, through the
		// decoder: the answer a streaming decode gives, so a syntax
		// error before the limit stays a 400.
		err = decodeBody(io.MultiReader(bytes.NewReader(body), errReader{err}), v)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// retryAfterHeader renders a Retry-After duration in whole seconds,
// rounded up so the client never retries early (and never gets 0).
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// TooLarge reports an error answered 413: an instance dimension or an
// option above its bound.  The cluster router applies the same rule to
// resolution errors, so a request gets one status through either door.
func TooLarge(err error) bool {
	var (
		dim *TooLargeError
		opt *solve.LimitError
	)
	return errors.As(err, &dim) || errors.As(err, &opt)
}

// submit parses the body and submits, mapping the error classes to
// status codes: resolution failures 400, oversized bodies, instance
// dimensions or options 413, full queue 429 (with Retry-After), open
// circuit breaker or shutdown 503.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) (*Job, bool, bool) {
	var req SolveRequest
	if !readBody(w, r, &req) {
		return nil, false, false
	}
	job, deduped, err := s.Submit(&req)
	var unavailable *SolverUnavailableError
	switch {
	case err == nil:
		return job, deduped, true
	case TooLarge(err):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, ErrQueueFull):
		writeRetryError(w, http.StatusTooManyRequests, err, time.Second)
	case errors.As(err, &unavailable):
		writeRetryError(w, http.StatusServiceUnavailable, err, unavailable.RetryAfter)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return nil, false, false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job, deduped, ok := s.submit(w, r)
	if !ok {
		return
	}
	st := job.Snapshot()
	st.Deduped = deduped
	code := http.StatusAccepted
	if JobState(st.State).Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, errors.New("invalid timeout_ms"))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-job.Done():
	case <-t.C:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleSolve is the synchronous convenience endpoint: submit, wait
// for the terminal state, answer 200 done / 409 canceled / 500 failed.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	job, deduped, ok := s.submit(w, r)
	if !ok {
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away; the job keeps running for other
		// (deduplicated or polling) consumers.
		return
	}
	st := job.Snapshot()
	st.Deduped = deduped
	code := http.StatusOK
	switch JobState(st.State) {
	case JobFailed:
		code = http.StatusInternalServerError
	case JobCanceled:
		code = http.StatusConflict
	}
	writeJSON(w, code, st)
}

// sessionError maps session-layer errors onto status codes, mirroring
// submit's mapping for the shared error classes.
func sessionError(w http.ResponseWriter, err error) {
	var unavailable *SolverUnavailableError
	switch {
	case TooLarge(err):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, ErrSessionLimit):
		writeRetryError(w, http.StatusTooManyRequests, err, time.Second)
	case errors.As(err, &unavailable):
		writeRetryError(w, http.StatusServiceUnavailable, err, unavailable.RetryAfter)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrNoSuchSession):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errSolveFailed):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// errSolveFailed wraps solve-time (as opposed to request-validation)
// session errors so sessionError can answer 500 instead of 400.
var errSolveFailed = errors.New("solve failed")

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !readBody(w, r, &req) {
		return
	}
	sess, err := s.CreateSession(r.Context(), &req)
	if err != nil {
		// A solve crash on the opening trace is a server-side failure,
		// not a bad request (the session is discarded either way).
		if isSolveFailure(err) {
			sessionError(w, fmt.Errorf("%w: %v", errSolveFailed, err))
		} else {
			sessionError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSuchSession)
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

func (s *Server) handleSessionSteps(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSuchSession)
		return
	}
	var batch SessionSteps
	if !readBody(w, r, &batch) {
		return
	}
	st, err := sess.Steps(r.Context(), &batch)
	if err != nil {
		if isSolveFailure(err) {
			sessionError(w, fmt.Errorf("%w: %v", errSolveFailed, err))
			return
		}
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// isSolveFailure separates engine/solve failures (500) from request
// validation failures (400): a panic, deadline or cancellation happens
// after the batch was accepted into the trace, so it is a server-side
// failure rather than a bad request.
func isSolveFailure(err error) bool {
	var pe *solve.PanicError
	return errors.As(err, &pe) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func (s *Server) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSuchSession)
		return
	}
	var gen int64 = -1
	if v := r.URL.Query().Get("generation"); v != "" {
		g, err := strconv.ParseInt(v, 10, 64)
		if err != nil || g < 0 {
			writeError(w, http.StatusBadRequest, errors.New("invalid generation"))
			return
		}
		gen = g
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, errors.New("invalid timeout_ms"))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	writeJSON(w, http.StatusOK, sess.Wait(r.Context(), gen, timeout))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.metrics.render(&buf, s.gauges())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes())
}
