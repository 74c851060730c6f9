package service

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/shyra"
	"repro/internal/solve"
)

// counterWire resolves the counter app and re-serializes it as an
// inline wire instance.
func counterWire(t *testing.T) *WireInstance {
	t.Helper()
	tr, err := core.AppTrace("counter")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		t.Fatal(err)
	}
	return WireInstanceFrom(mt)
}

func mustResolve(t *testing.T, req *SolveRequest) *resolved {
	t.Helper()
	res, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func key(t *testing.T, res *resolved) string {
	t.Helper()
	k, err := requestKey(res.inst, res.solver, res.opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRequestKeyContentAddressed(t *testing.T) {
	// The same problem phrased as a bundled app and as its inline
	// requirement matrix must share one cache line.
	byApp := mustResolve(t, &SolveRequest{Solver: "aligned", App: "counter"})
	byInline := mustResolve(t, &SolveRequest{Solver: "aligned", Instance: counterWire(t)})
	if key(t, byApp) != key(t, byInline) {
		t.Fatal("app and equivalent inline instance hash differently")
	}

	// Stability across calls.
	if key(t, byApp) != key(t, mustResolve(t, &SolveRequest{Solver: "aligned", App: "counter"})) {
		t.Fatal("hash is not stable")
	}
}

func TestRequestKeyDiscriminates(t *testing.T) {
	base := &SolveRequest{Solver: "aligned", App: "counter"}
	baseKey := key(t, mustResolve(t, base))
	variants := []*SolveRequest{
		{Solver: "ga", App: "counter"},
		{Solver: "aligned", App: "counter", Upload: "sequential"},
		{Solver: "aligned", App: "counter", Gran: "unit"},
		{Solver: "aligned", App: "counter", Kind: "switch"},
		{Solver: "aligned", App: "counter", Options: WireOptions{Seed: 7}},
		{Solver: "aligned", App: "counter", TimeoutMS: 5000},
		{Solver: "aligned", App: "toggle"},
	}
	for i, v := range variants {
		if key(t, mustResolve(t, v)) == baseKey {
			t.Fatalf("variant %d collides with the base request", i)
		}
	}
}

func TestRequestKeyUnsupportedKind(t *testing.T) {
	if _, err := requestKey(solve.NewDAG(nil), "exact", solve.Options{}); err == nil {
		t.Fatal("hashed an unsupported instance kind")
	}
}

// TestResolveDropsRetiredWorkers decodes bodies that still carry the
// retired "workers" option: a client-chosen count must not reach
// solve.Options, where it would size the GA and partition pools.
func TestResolveDropsRetiredWorkers(t *testing.T) {
	const body = `{"solver":"exact","instance":{"tasks":[{"name":"A","local":2,"v":2}],"reqs":[["10"],["01"]]},"options":{"workers":1073741824}}`
	var req SolveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if res := mustResolve(t, &req); res.opts.Workers != 0 {
		t.Fatalf("resolve: Options.Workers = %d, want 0", res.opts.Workers)
	}
	var sreq SessionRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		t.Fatal(err)
	}
	_, _, opts, err := sreq.resolveSession(RouteLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 0 {
		t.Fatalf("resolveSession: Options.Workers = %d, want 0", opts.Workers)
	}
}
