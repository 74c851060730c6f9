package service

import (
	"net/http"

	"repro/internal/solve"
)

// GET /v1/solvers — the registry introspection endpoint.  Clients (and
// the hyperd bench preflight) use it to stop guessing which solver
// names a node accepts and which option values its Validate will
// reject: the response lists every registered solver with its
// capabilities plus the validated range of each wire option.

// SolverInfo describes one registered solver.
type SolverInfo struct {
	// Name is the registry key, the value of WireOptions.Solver.
	Name string `json:"name"`
	// Kinds lists the instance kinds the solver accepts.
	Kinds []string `json:"kinds"`
	// Exact reports whether the solver proves optimality when its caps
	// are not exceeded.
	Exact bool `json:"exact"`
}

// OptionRange documents the validated range of one solve option as
// Options.Validate enforces it.
type OptionRange struct {
	// Name is the WireOptions JSON field name.
	Name string `json:"name"`
	// Type is the JSON type clients send ("int", "float", "bool",
	// "string").
	Type string `json:"type"`
	// Range states the accepted values in interval notation; zero
	// values always select per-solver defaults.
	Range string `json:"range"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// SolversResponse is the GET /v1/solvers body.
type SolversResponse struct {
	Solvers []SolverInfo  `json:"solvers"`
	Options []OptionRange `json:"options"`
}

// optionRanges mirrors solve.Options.Validate: every rule there has a
// line here (TestSolverOptionRanges pins the field set against
// WireOptions so the two cannot drift silently).
func optionRanges() []OptionRange {
	return []OptionRange{
		{Name: "timeout_ms", Type: "int", Range: "[0,∞)", Doc: "wall-time bound in milliseconds; 0 = none (server clamp may apply)"},
		{Name: "max_states", Type: "int", Range: "[0,∞)", Doc: "exact-DP frontier beam cap; 0 = solver default"},
		{Name: "max_candidates", Type: "int", Range: "[0,∞)", Doc: "per-task install candidate cap; 0 = unlimited (required for exactness)"},
		{Name: "max_frontier_bytes", Type: "int", Range: "[0,∞)", Doc: "frontier arena memory budget; 0 = unbudgeted"},
		{Name: "disable_pruning", Type: "bool", Range: "{false,true}", Doc: "turn off dominance/bound pruning (baselining only)"},
		{Name: "seed", Type: "int", Range: "(-∞,∞)", Doc: "deterministic random seed; 0 = 1"},
		{Name: "pop", Type: "int", Range: "[0,∞)", Doc: "GA population size; 0 = 80"},
		{Name: "generations", Type: "int", Range: "[0,∞)", Doc: "GA generations; 0 = 300"},
		{Name: "mut_rate", Type: "float", Range: "[0,1]", Doc: "GA per-bit mutation probability; 0 = adaptive"},
		{Name: "cross_rate", Type: "float", Range: "[0,1]", Doc: "GA crossover probability; 0 = 0.9"},
		{Name: "tournament_k", Type: "int", Range: "[0,∞)", Doc: "GA tournament size; 0 = 3"},
		{Name: "elites", Type: "int", Range: "[0,∞)", Doc: "GA elites per generation; 0 = 2"},
		{Name: "no_heuristic_seeds", Type: "bool", Range: "{false,true}", Doc: "disable heuristic seeding of the GA population"},
		{Name: "crossover", Type: "string", Range: "{uniform,two-point,task-row}", Doc: "GA recombination operator"},
		{Name: "iterations", Type: "int", Range: "[0,∞)", Doc: "annealing iterations; 0 = 20000"},
		{Name: "initial_temp", Type: "float", Range: "[0,∞)", Doc: "annealing start temperature; 0 = adaptive"},
		{Name: "cooling", Type: "float", Range: "(0,1) or 0", Doc: "annealing geometric cooling factor; 0 = adaptive decay"},
		{Name: "interval_k", Type: "int", Range: "[0,∞)", Doc: "fixed-interval baseline period; 0 = solver default"},
		{Name: "partitions", Type: "int", Range: "[0,∞)", Doc: "exact-partitioned window count; 0 = auto, 1 = monolithic"},
		{Name: "max_cut_columns", Type: "int", Range: "[0,∞)", Doc: "partition planner weighted column-cut cap; 0 = uncapped"},
	}
}

// solversResponse builds the full body from the live registry.
func solversResponse() SolversResponse {
	names := solve.Names()
	infos := make([]SolverInfo, 0, len(names))
	for _, name := range names {
		s, err := solve.Get(name)
		if err != nil {
			continue // raced deregistration cannot happen, but stay safe
		}
		caps := s.Capabilities()
		kinds := make([]string, len(caps.Kinds))
		for i, k := range caps.Kinds {
			kinds[i] = k.String()
		}
		infos = append(infos, SolverInfo{Name: name, Kinds: kinds, Exact: caps.Exact})
	}
	return SolversResponse{Solvers: infos, Options: optionRanges()}
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, solversResponse())
}
