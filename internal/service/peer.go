package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/solve"
)

// Peer cache fill — the cluster protocol under GET /v1/cache/{key}.
//
// A cluster node that misses its canonical store asks its ring-adjacent
// siblings for the entry before solving.  The unit of transfer is one
// canonical store line: the hyperreconfiguration mask in canonical task
// order plus cost/exactness/stats, keyed by the canonical form hash.
// The receiving node replays the mask onto the requester's own instance
// through the same reconstruct path a local canonical hit uses — the
// replay cost-checks the entry against the instance, so a corrupt or
// mismatched peer answer degrades to a miss, never a wrong result.
//
// Cross-node singleflight rides on the same endpoint: when the serving
// node has no entry yet but an in-flight solve for the key, a request
// with ?wait_ms=N blocks until that solve publishes (or the wait
// expires).  Twin requests landing on two nodes therefore collapse to
// one solve: the second node waits on the first node's job instead of
// expanding the same frontier again.

// PeerFiller is the cluster hook consulted on a canonical-cache miss
// before a solve is enqueued (installed via Config.PeerFill; see
// internal/cluster for the HTTP implementation).  Fill returns the
// entry and true when any sibling held (or finished solving) the key.
type PeerFiller interface {
	Fill(key string) (*PeerEntry, bool)
}

// PeerEntry is the wire form of one canonical store entry, the body of
// a GET /v1/cache/{key} hit.
type PeerEntry struct {
	// Key echoes the canonical store key the entry answers.
	Key string `json:"key"`
	// Cost and Exact mirror the stored solution.
	Cost  int64 `json:"cost"`
	Exact bool  `json:"exact"`
	// Mask is the hyperreconfiguration mask in canonical task order:
	// one row per canonical task, '0'/'1' per step.
	Mask []string `json:"mask"`
	// Stats carries the original solve's statistics so a peer-filled
	// answer reports the true work, not zeros.
	Stats WireStats `json:"stats"`
}

// maxPeerKeyLen bounds the key path segment (canonical keys are 64 hex
// chars; leave headroom for future key schemes).
const maxPeerKeyLen = 128

// maxPeerWait caps the server-side in-flight wait a peer may request.
const maxPeerWait = 10 * time.Second

// validPeerKey reports whether key looks like a canonical store key:
// non-empty lowercase hex, bounded length.
func validPeerKey(key string) bool {
	if len(key) == 0 || len(key) > maxPeerKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DecodePeerEntry parses and validates one peer-fill body.  It is the
// exact decode path FuzzPeerFill drives: any input must come back as a
// value or an error, never a panic, and every accepted entry is inside
// the service dimension bounds.
func DecodePeerEntry(data []byte) (*PeerEntry, error) {
	var pe PeerEntry
	if err := json.Unmarshal(data, &pe); err != nil {
		return nil, err
	}
	if !validPeerKey(pe.Key) {
		return nil, fmt.Errorf("peer entry: invalid key %q", pe.Key)
	}
	if pe.Cost < 0 {
		return nil, fmt.Errorf("peer entry: negative cost %d", pe.Cost)
	}
	if len(pe.Mask) == 0 {
		return nil, errors.New("peer entry: empty mask")
	}
	if len(pe.Mask) > maxWireTasks {
		return nil, &TooLargeError{What: "peer mask task count", Got: len(pe.Mask), Limit: maxWireTasks}
	}
	steps := len(pe.Mask[0])
	if steps > maxWireSteps {
		return nil, &TooLargeError{What: "peer mask step count", Got: steps, Limit: maxWireSteps}
	}
	for c, row := range pe.Mask {
		if len(row) != steps {
			return nil, fmt.Errorf("peer entry: mask row %d has %d steps, want %d", c, len(row), steps)
		}
		for i := 0; i < len(row); i++ {
			if row[i] != '0' && row[i] != '1' {
				return nil, fmt.Errorf("peer entry: mask row %d has non-binary cell %q", c, row[i])
			}
		}
	}
	return &pe, nil
}

// entry converts the wire form into a canonical store entry.
func (pe *PeerEntry) entry() *canonicalEntry {
	mask := make([][]bool, len(pe.Mask))
	for c, row := range pe.Mask {
		bits := make([]bool, len(row))
		for i := 0; i < len(row); i++ {
			bits[i] = row[i] == '1'
		}
		mask[c] = bits
	}
	return &canonicalEntry{
		mask:  mask,
		cost:  model.Cost(pe.Cost),
		exact: pe.Exact,
		stats: statsFromWire(pe.Stats),
	}
}

// peerEntryOf renders a canonical store entry for the wire.
func peerEntryOf(key string, e *canonicalEntry) *PeerEntry {
	mask := make([]string, len(e.mask))
	for c, bits := range e.mask {
		row := make([]byte, len(bits))
		for i, b := range bits {
			if b {
				row[i] = '1'
			} else {
				row[i] = '0'
			}
		}
		mask[c] = string(row)
	}
	return &PeerEntry{
		Key:   key,
		Cost:  int64(e.cost),
		Exact: e.exact,
		Mask:  mask,
		Stats: wireStats(e.stats),
	}
}

// errNoPeerEntry is the 404 body of a peer-fill miss.
var errNoPeerEntry = errors.New("service: no canonical entry for key")

// PeerLookup serves one peer-fill request against the local canonical
// store.  With wait > 0 and an in-flight solve registered for the key,
// the lookup blocks until that solve publishes its entry, the wait
// expires, or done closes — the cross-node singleflight join.
func (s *Server) PeerLookup(key string, wait time.Duration, done <-chan struct{}) (*PeerEntry, bool) {
	if e, ok := s.canon.Get(key); ok {
		s.metrics.peerServeHits.Add(1)
		return peerEntryOf(key, e), true
	}
	if wait <= 0 {
		s.metrics.peerServeMisses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	job := s.canonInflight[key]
	s.mu.Unlock()
	if job == nil {
		s.metrics.peerServeMisses.Add(1)
		return nil, false
	}
	s.metrics.peerServeWaits.Add(1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-job.Done():
	case <-t.C:
	case <-done:
	}
	if e, ok := s.canon.Get(key); ok {
		s.metrics.peerServeHits.Add(1)
		return peerEntryOf(key, e), true
	}
	s.metrics.peerServeMisses.Add(1)
	return nil, false
}

func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validPeerKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid cache key %q", key))
		return
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, errors.New("invalid wait_ms"))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxPeerWait {
			wait = maxPeerWait
		}
	}
	pe, ok := s.PeerLookup(key, wait, r.Context().Done())
	if !ok {
		writeError(w, http.StatusNotFound, errNoPeerEntry)
		return
	}
	writeJSON(w, http.StatusOK, pe)
}

// RouteLimits are the server-side clamps that enter the cache and
// routing keys.  A router hashing requests onto nodes must apply the
// same limits the nodes serve with, or its shard keys drift from the
// nodes' canonical store keys (routing stays consistent either way —
// only peer-fill owner alignment degrades).
type RouteLimits struct {
	MaxSolveTimeout  time.Duration
	MaxFrontierBytes int64
}

// clamp applies the limits to one request's options, exactly as the
// submit and session paths do.
func (l RouteLimits) clamp(opts solve.Options) solve.Options {
	if l.MaxSolveTimeout > 0 && (opts.Timeout == 0 || opts.Timeout > l.MaxSolveTimeout) {
		opts.Timeout = l.MaxSolveTimeout
	}
	if l.MaxFrontierBytes > 0 && (opts.MaxFrontierBytes == 0 || opts.MaxFrontierBytes > l.MaxFrontierBytes) {
		opts.MaxFrontierBytes = l.MaxFrontierBytes
	}
	return opts
}

// limits returns the server's own clamps.
func (s *Server) limits() RouteLimits {
	return RouteLimits{
		MaxSolveTimeout:  s.cfg.MaxSolveTimeout,
		MaxFrontierBytes: s.cfg.MaxFrontierBytes,
	}
}

// RoutingKey returns the cluster shard key of a solve request: the
// canonical store key for mtswitch instances (so structural twins from
// any client hash to the same node) and the exact request key
// otherwise, on the solver the node runs and stores the answer under.
// Resolution failures are client errors.
func (r *SolveRequest) RoutingKey(lim RouteLimits) (string, error) {
	res, err := r.resolve()
	if err != nil {
		return "", err
	}
	opts := lim.clamp(res.opts)
	if res.inst.Kind() == solve.KindMTSwitch && res.mt != nil {
		key, _ := canonicalMTKey(res.mt, res.inst.Cost, res.solver, opts)
		return key, nil
	}
	return requestKey(res.inst, res.solver, opts)
}

// RoutingKey returns the shard key a session opener hashes to; the
// session then sticks to that node for its whole life (sessions hold
// node-local engine state).
func (r *SessionRequest) RoutingKey(lim RouteLimits) (string, error) {
	mt, cost, opts, err := r.resolveSession(lim)
	if err != nil {
		return "", err
	}
	key, _ := canonicalMTKey(mt, cost, r.Solver, opts)
	return key, nil
}
