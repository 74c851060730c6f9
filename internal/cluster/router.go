package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// Router defaults.
const (
	DefaultStickyCap      = 65536
	DefaultHealthInterval = time.Second
	maxRouteBody          = 16 << 20 // mirrors the node-side body bound
	maxProxyResponse      = 64 << 20
)

// RouterConfig configures the cluster front door.
type RouterConfig struct {
	// Peers are the hyperd node base URLs (required, at least one).
	Peers []string
	// VNodes is the virtual-node count per member (default 64); it
	// must match the nodes' own -vnodes for peer fill to align.
	VNodes int
	// HealthInterval is the /v1/healthz sweep period (default 1s).
	HealthInterval time.Duration
	// Client performs the proxied requests; nil selects a default
	// without a timeout (long polls flow through the router).
	Client *http.Client
	// StickyCap bounds each sticky table, jobs and sessions alike
	// (default 65536 entries).
	StickyCap int
	// Breaker tunes the per-node circuit breakers.
	Breaker resilience.BreakerConfig
	// Limits are the option clamps the nodes serve with.  The router
	// applies them before hashing so its shard keys match the nodes'
	// canonical store keys in a homogeneous cluster.
	Limits service.RouteLimits
	// NodeID names the router in /v1/healthz (default "hyperd-router").
	NodeID string
}

// Router is the cluster front door: it hashes solve submissions onto
// nodes by canonical form, fails over along the ring preference order,
// and pins job polls and streaming sessions to the node that owns
// their state.
type Router struct {
	cfg      RouterConfig
	members  *MemberSet
	checker  *HealthChecker
	client   *http.Client
	breakers map[string]*resilience.Breaker

	jobs     *stickyTable // job id -> member id
	sessions *stickyTable // session id -> member id
	metrics  *routerMetrics
}

// NewRouter builds the router and runs one synchronous health sweep so
// the first request already sees real member states.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: router needs at least one peer")
	}
	if cfg.StickyCap <= 0 {
		cfg.StickyCap = DefaultStickyCap
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.NodeID == "" {
		cfg.NodeID = "hyperd-router"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	set, err := NewMemberSet(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		members:  set,
		client:   cfg.Client,
		breakers: map[string]*resilience.Breaker{},
		jobs:     newStickyTable(cfg.StickyCap),
		sessions: newStickyTable(cfg.StickyCap),
		metrics:  newRouterMetrics(set),
	}
	for _, m := range set.Members() {
		r.breakers[m.ID] = resilience.NewBreaker(cfg.Breaker)
	}
	r.checker = NewHealthChecker(set, cfg.HealthInterval, nil, "")
	r.checker.CheckNow(context.Background())
	r.checker.Start()
	return r, nil
}

// Close stops the health sweep.
func (rt *Router) Close() { rt.checker.Stop() }

// Members exposes the member set (bench and tests).
func (rt *Router) Members() *MemberSet { return rt.members }

// Handler returns the router's HTTP surface: the node API re-exported
// with routing, plus the router's own /healthz, /v1/healthz and
// /metrics served locally.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("POST /v1/solve", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", rt.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/steps", rt.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/schedule", rt.handleSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSession)
	mux.HandleFunc("GET /v1/cache/{key}", rt.handleCache)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// errorBody mirrors the node-side error shape so clients see one JSON
// error format whether the router or a node answered.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

var errNoNode = errors.New("cluster: no healthy node available")

// writeResolveError answers a request the router could not resolve
// with the node's status for it: 413 for an instance dimension or an
// option above its bound (service.TooLarge), 400 otherwise.
func writeResolveError(w http.ResponseWriter, err error) {
	if service.TooLarge(err) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// handleSubmit routes POST /v1/solve and POST /v1/jobs by shard key.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	var req service.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := req.RoutingKey(rt.cfg.Limits)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	rt.forward(w, r, rt.members.Ring().Lookup(key), body, rt.jobs)
}

// handleSessionCreate routes POST /v1/sessions by shard key and learns
// the session's sticky node from the response.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	var req service.SessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := req.RoutingKey(rt.cfg.Limits)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	rt.forward(w, r, rt.members.Ring().Lookup(key), body, rt.sessions)
}

// handleJob routes job polls/cancels to the sticky owner, falling back
// to a ring-ordered search when the assignment is unknown (router
// restart): the id is probed on every healthy node until one answers
// something other than 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rt.routeByID(w, r, r.PathValue("id"), rt.jobs)
}

func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	rt.routeByID(w, r, r.PathValue("id"), rt.sessions)
}

// handleCache routes peer-fill reads to the key's owner (so an
// external smart client can use the router as its cache front end).
func (rt *Router) handleCache(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, rt.members.Ring().Lookup(r.PathValue("key")), nil, nil)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := &service.HealthStatus{
		Status:  "ok",
		State:   "ready", // the router holds no journal; it never recovers
		NodeID:  rt.cfg.NodeID,
		Version: service.BuildVersion(),
		Ring:    rt.members.Status(rt.cfg.NodeID),
	}
	writeJSON(w, http.StatusOK, st)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	rt.metrics.render(&buf, rt)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes())
}

// routeByID forwards a request whose target is an id-addressed
// resource (job or session).  The sticky table names the owner; on a
// miss every healthy member is probed in ring order and the first
// non-404 answer wins (and repopulates the table).
func (rt *Router) routeByID(w http.ResponseWriter, r *http.Request, id string, table *stickyTable) {
	// Buffer the body once so retries against other members can replay
	// it (session step batches arrive here).
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err)
			} else {
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		if len(b) > 0 {
			body = b
		}
	}
	if node, ok := table.get(id); ok {
		if m, exists := rt.members.Member(node); exists && m.Healthy() {
			res, err := rt.fetch(r, m, body)
			if err == nil {
				rt.noteSuccess(m)
				if res.status != http.StatusNotFound {
					rt.metrics.observe(m.ID)
					res.writeTo(w)
					return
				}
			} else {
				rt.noteFailure(m)
			}
			// The owner lost the resource (restart) or the transport
			// failed; fall through to the search so a still-alive
			// replica can answer.
		}
		table.drop(id)
	}
	var last *proxyResult
	for _, m := range rt.healthyMembers() {
		res, err := rt.fetch(r, m, body)
		if err != nil {
			rt.noteFailure(m)
			continue
		}
		rt.noteSuccess(m)
		if res.status != http.StatusNotFound {
			table.put(id, m.ID)
			rt.metrics.observe(m.ID)
			res.writeTo(w)
			return
		}
		last = res
	}
	if last != nil {
		last.writeTo(w)
		return
	}
	rt.metrics.noNode.Add(1)
	writeError(w, http.StatusServiceUnavailable, errNoNode)
}

// healthyMembers returns the members currently marked healthy, in ring
// (sorted-id) order.
func (rt *Router) healthyMembers() []*Member {
	var out []*Member
	for _, m := range rt.members.Members() {
		if m.Healthy() {
			out = append(out, m)
		}
	}
	return out
}

// forward proxies the request to the first reachable member of the
// preference order: unhealthy members and open breakers are skipped,
// transport failures advance to the next member (counting a failover).
// table, when non-nil, learns the response's "id" field.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, prefer []string, body []byte, table *stickyTable) {
	tried := 0
	for _, id := range prefer {
		m, ok := rt.members.Member(id)
		if !ok || !m.Healthy() {
			continue
		}
		if allowed, _ := rt.breakers[id].Allow(); !allowed {
			continue
		}
		if tried > 0 {
			rt.metrics.failovers.Add(1)
		}
		tried++
		if _, err := rt.proxy(w, r, m, body, table); err != nil {
			continue
		}
		return
	}
	rt.metrics.noNode.Add(1)
	writeError(w, http.StatusServiceUnavailable, errNoNode)
}

// proxy performs one forwarded request and, on success, relays the
// response.  A transport error before any bytes reach the client
// returns the error so the caller can fail over.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, m *Member, body []byte, table *stickyTable) (int, error) {
	res, err := rt.fetch(r, m, body)
	if err != nil {
		rt.noteFailure(m)
		return 0, err
	}
	rt.noteSuccess(m)
	rt.metrics.observe(m.ID)
	if table != nil && res.status < 300 {
		if id := decodeID(res.body); id != "" {
			table.put(id, m.ID)
		}
	}
	res.writeTo(w)
	return res.status, nil
}

// proxyResult is one buffered upstream response.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

func (p *proxyResult) writeTo(w http.ResponseWriter) {
	for k, vs := range p.header {
		if hopByHop(k) {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(p.status)
	w.Write(p.body)
}

// hopByHop filters connection-scoped headers out of relayed responses.
func hopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade",
		"Proxy-Connection", "Te", "Trailer":
		return true
	}
	return false
}

// fetch performs the upstream request, buffering the response so it
// can be retried on another node or relayed.
func (rt *Router) fetch(r *http.Request, m *Member, body []byte) (*proxyResult, error) {
	u := m.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	if err != nil {
		return nil, err
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header.Clone(), body: b}, nil
}

func (rt *Router) noteFailure(m *Member) {
	rt.breakers[m.ID].Failure()
	rt.metrics.errors.Add(1)
}

func (rt *Router) noteSuccess(m *Member) {
	rt.breakers[m.ID].Success()
}

// decodeID pulls the "id" field out of a routed response body (job and
// session statuses both carry one).
func decodeID(body []byte) string {
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return ""
	}
	return strings.TrimSpace(v.ID)
}

// String renders the routing table summary (debug logging).
func (rt *Router) String() string {
	return fmt.Sprintf("cluster.Router{members=%d, vnodes=%d}", len(rt.members.Members()), rt.members.Ring().VNodes())
}
