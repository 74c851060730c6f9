package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shyra"
	"repro/internal/solve"
	"repro/internal/traceio"
)

// SolveRequest is the JSON body of POST /v1/jobs and POST /v1/solve.
// The instance comes either from a bundled application (App, resolved
// through the core app registry and traced on the fly) or inline
// (Instance, in the traceio requirement conventions); exactly one of
// the two must be set.
type SolveRequest struct {
	// Solver is the registry name to run (e.g. "aligned", "ga",
	// "exact").
	Solver string `json:"solver"`

	// App names a bundled application ("counter", "toggle", ...).
	App string `json:"app,omitempty"`
	// Gran is the requirement-extraction granularity for App: "bit"
	// (default), "unit" or "delta".
	Gran string `json:"gran,omitempty"`

	// Instance carries the requirement sequences inline.
	Instance *WireInstance `json:"instance,omitempty"`

	// Kind selects the problem view: "mtswitch" (default, the m-task
	// fully synchronized Switch model) or "switch" (the flattened m=1
	// single-task view).
	Kind string `json:"kind,omitempty"`
	// Upload is the upload mode for mtswitch: "parallel" (default) or
	// "sequential".
	Upload string `json:"upload,omitempty"`
	// W overrides the single-task hyperreconfiguration cost for
	// kind "switch" (default |X|, the paper's typical special case).
	W int64 `json:"w,omitempty"`

	// Options tune the solver; zero values select per-solver defaults.
	Options WireOptions `json:"options"`
	// TimeoutMS bounds the solve wall time; the server may clamp it to
	// its configured maximum.  0 means the server maximum (or no
	// deadline if the server has none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WireInstance is the inline multi-task instance: the same data the
// traceio CSV requirement format carries, as JSON.  Reqs is step-major
// like the CSV rows: Reqs[i][j] is task j's requirement at step i, an
// LSB-first bit string over the task's local universe.
type WireInstance struct {
	Tasks []WireTask `json:"tasks"`
	Reqs  [][]string `json:"reqs"`
}

// Inline-instance dimension bounds.  A request inside the body-size
// limit can still describe a combinatorially huge problem (the
// candidate catalog alone is O(m·n·l) packed vectors), so the service
// refuses oversized dimensions up front with a typed 413 instead of
// admitting a job that exhausts the solver.
const (
	maxWireTasks = 64
	maxWireSteps = 1 << 16
	maxWireLocal = 1 << 14
)

// TooLargeError rejects an inline instance whose declared dimensions
// exceed the service bounds; the HTTP layer maps it to 413.
type TooLargeError struct {
	What       string
	Got, Limit int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("instance too large: %s %d exceeds limit %d", e.What, e.Got, e.Limit)
}

// WireTask mirrors model.Task (the traceio CSV header cell
// "name:local:v").
type WireTask struct {
	Name  string `json:"name"`
	Local int    `json:"local"`
	V     int64  `json:"v"`
}

// WireOptions is the JSON view of solve.Options, minus Timeout (it
// travels as SolveRequest.TimeoutMS) and Workers: the node owns its
// parallelism, so a request cannot size goroutines.  Bodies that still
// carry the retired "workers" field decode with it ignored.
type WireOptions struct {
	MaxStates     int     `json:"max_states,omitempty"`
	MaxCandidates int     `json:"max_candidates,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Pop           int     `json:"pop,omitempty"`
	Generations   int     `json:"generations,omitempty"`
	MutRate       float64 `json:"mut_rate,omitempty"`
	CrossRate     float64 `json:"cross_rate,omitempty"`
	TournamentK   int     `json:"tournament_k,omitempty"`
	Elites        int     `json:"elites,omitempty"`
	NoSeeds       bool    `json:"no_heuristic_seeds,omitempty"`
	Crossover     string  `json:"crossover,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	InitialTemp   float64 `json:"initial_temp,omitempty"`
	Cooling       float64 `json:"cooling,omitempty"`
	IntervalK     int     `json:"interval_k,omitempty"`
	// MaxFrontierBytes budgets the solver's frontier memory; exceeding
	// it degrades the exact solver to a beam search (flagged in the
	// result stats) instead of exhausting server memory.
	MaxFrontierBytes int64 `json:"max_frontier_bytes,omitempty"`
	// DisablePruning turns off the exact solver's pruned-search layer
	// (baselining knob; never changes an untruncated cost).
	DisablePruning bool `json:"disable_pruning,omitempty"`
	// Partitions is the exact-partitioned solver's window count
	// (0 = automatic, 1 = monolithic).
	Partitions int `json:"partitions,omitempty"`
	// MaxCutColumns caps the weighted column cut the partition planner
	// may accept (0 = uncapped).
	MaxCutColumns int `json:"max_cut_columns,omitempty"`
}

// toSolve maps the wire options onto solve.Options.
func (o WireOptions) toSolve() (solve.Options, error) {
	out := solve.Options{
		MaxStates:        o.MaxStates,
		MaxCandidates:    o.MaxCandidates,
		MaxFrontierBytes: o.MaxFrontierBytes,
		DisablePruning:   o.DisablePruning,
		Seed:             o.Seed,
		Pop:              o.Pop,
		Generations:      o.Generations,
		MutRate:          o.MutRate,
		CrossRate:        o.CrossRate,
		TournamentK:      o.TournamentK,
		Elites:           o.Elites,
		NoHeuristicSeeds: o.NoSeeds,
		Iterations:       o.Iterations,
		InitialTemp:      o.InitialTemp,
		Cooling:          o.Cooling,
		IntervalK:        o.IntervalK,
		Partitions:       o.Partitions,
		MaxCutColumns:    o.MaxCutColumns,
	}
	switch o.Crossover {
	case "", "uniform":
		out.Crossover = solve.CrossUniform
	case "two-point":
		out.Crossover = solve.CrossTwoPoint
	case "task-row":
		out.Crossover = solve.CrossTaskRow
	default:
		return out, fmt.Errorf("unknown crossover %q (want uniform, two-point or task-row)", o.Crossover)
	}
	return out, nil
}

// WireInstanceFrom converts a model instance to the wire form (the
// inverse of the inline-instance resolution; used by the bench load
// generator and by clients shipping generated workloads).
func WireInstanceFrom(mt *model.MTSwitchInstance) *WireInstance {
	out := &WireInstance{Tasks: make([]WireTask, mt.NumTasks())}
	for j, t := range mt.Tasks {
		out.Tasks[j] = WireTask{Name: t.Name, Local: t.Local, V: int64(t.V)}
	}
	out.Reqs = make([][]string, mt.Steps())
	for i := 0; i < mt.Steps(); i++ {
		row := make([]string, mt.NumTasks())
		for j := 0; j < mt.NumTasks(); j++ {
			row[j] = mt.Reqs[j][i].String()
		}
		out.Reqs[i] = row
	}
	return out
}

// toModel builds the model instance from the wire form.
func (wi *WireInstance) toModel() (*model.MTSwitchInstance, error) {
	if len(wi.Tasks) == 0 {
		return nil, fmt.Errorf("instance has no tasks")
	}
	if len(wi.Tasks) > maxWireTasks {
		return nil, &TooLargeError{What: "task count", Got: len(wi.Tasks), Limit: maxWireTasks}
	}
	if len(wi.Reqs) > maxWireSteps {
		return nil, &TooLargeError{What: "step count", Got: len(wi.Reqs), Limit: maxWireSteps}
	}
	tasks := make([]model.Task, len(wi.Tasks))
	for j, t := range wi.Tasks {
		if t.Local > maxWireLocal {
			return nil, &TooLargeError{What: fmt.Sprintf("task %q local universe", t.Name), Got: t.Local, Limit: maxWireLocal}
		}
		tasks[j] = model.Task{Name: t.Name, Local: t.Local, V: model.Cost(t.V)}
	}
	reqs := make([][]bitset.Set, len(tasks))
	for j := range reqs {
		reqs[j] = make([]bitset.Set, 0, len(wi.Reqs))
	}
	for i, row := range wi.Reqs {
		if len(row) != len(tasks) {
			return nil, fmt.Errorf("reqs row %d has %d cells, want %d", i, len(row), len(tasks))
		}
		for j, cell := range row {
			s, err := bitset.Parse(cell)
			if err != nil {
				return nil, fmt.Errorf("reqs row %d task %q: %w", i, tasks[j].Name, err)
			}
			if s.Universe() != tasks[j].Local {
				return nil, fmt.Errorf("reqs row %d task %q bit string length %d, want %d",
					i, tasks[j].Name, s.Universe(), tasks[j].Local)
			}
			reqs[j] = append(reqs[j], s)
		}
	}
	return model.NewMTSwitchInstance(tasks, reqs)
}

// resolved is a fully validated request, ready to hash and run.
type resolved struct {
	inst   *solve.Instance
	mt     *model.MTSwitchInstance // retained for schedule serialization
	solver string
	opts   solve.Options
}

// resolve validates the request and builds the normalized solve
// instance.  All errors are client errors (bad request).
func (r *SolveRequest) resolve() (*resolved, error) {
	if r.Solver == "" {
		return nil, fmt.Errorf("missing solver (registered: %v)", solve.Names())
	}
	if _, err := solve.Get(r.Solver); err != nil {
		return nil, err
	}
	if (r.App == "") == (r.Instance == nil) {
		return nil, fmt.Errorf("exactly one of app and instance must be set")
	}

	var mt *model.MTSwitchInstance
	var err error
	if r.App != "" {
		gran := r.Gran
		if gran == "" {
			gran = "bit"
		}
		g, err := shyra.ParseGranularity(gran)
		if err != nil {
			return nil, err
		}
		tr, err := core.AppTrace(r.App)
		if err != nil {
			return nil, err
		}
		mt, err = tr.MTInstance(g)
		if err != nil {
			return nil, err
		}
	} else {
		if r.Gran != "" {
			return nil, fmt.Errorf("gran only applies to app requests")
		}
		mt, err = r.Instance.toModel()
		if err != nil {
			return nil, err
		}
	}

	opts, err := r.Options.toSolve()
	if err != nil {
		return nil, err
	}
	if r.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", r.TimeoutMS)
	}
	opts.Timeout = time.Duration(r.TimeoutMS) * time.Millisecond
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	out := &resolved{solver: r.Solver, opts: opts}
	switch r.Kind {
	case "", "mtswitch":
		if r.W != 0 {
			return nil, fmt.Errorf("w only applies to kind switch")
		}
		var cost model.CostOptions
		switch r.Upload {
		case "", "parallel":
			cost = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
		case "sequential":
			cost = model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
		default:
			return nil, fmt.Errorf("unknown upload mode %q (want parallel or sequential)", r.Upload)
		}
		out.mt = mt
		out.inst = solve.NewMT(mt, cost)
	case "switch":
		if r.Upload != "" {
			return nil, fmt.Errorf("upload only applies to kind mtswitch")
		}
		single, err := mt.SingleTaskView()
		if err != nil {
			return nil, err
		}
		if r.W < 0 {
			return nil, fmt.Errorf("negative w %d", r.W)
		}
		if r.W > 0 {
			single.W = model.Cost(r.W)
		}
		out.inst = solve.NewSwitch(single)
	default:
		return nil, fmt.Errorf("unknown kind %q (want mtswitch or switch)", r.Kind)
	}
	return out, nil
}

// WireStats is the JSON view of solve.Stats.
type WireStats struct {
	StatesExpanded   int64 `json:"states_expanded"`
	DedupHits        int64 `json:"dedup_hits"`
	CandidatesPruned int64 `json:"candidates_pruned"`
	// StatesPruned is the pruned search layer's total eliminations
	// (dominance hits plus bound cutoffs).
	StatesPruned  int64 `json:"states_pruned,omitempty"`
	DominanceHits int64 `json:"dominance_hits,omitempty"`
	BoundCutoffs  int64 `json:"bound_cutoffs,omitempty"`
	// IncumbentTightenings counts mid-flight adoptions of an externally
	// published incumbent bound (portfolio races only).
	IncumbentTightenings int64 `json:"incumbent_tightenings,omitempty"`
	// PreprocessReduction counts requirement-matrix cells removed by
	// instance preprocessing before the DP ran.
	PreprocessReduction int64 `json:"preprocess_reduction,omitempty"`
	// BudgetDropped counts states the memory budget discarded on a
	// degraded run — how lossy the degradation was.
	BudgetDropped int64 `json:"budget_dropped,omitempty"`
	Evaluations   int64 `json:"evaluations"`
	// Partitions, CutColumns and StitchBound describe a partitioned
	// solve: window count, weighted column cut, and the certified
	// additive slack (the optimum lies in [cost − stitch_bound, cost]).
	Partitions  int64   `json:"partitions,omitempty"`
	CutColumns  int64   `json:"cut_columns,omitempty"`
	StitchBound int64   `json:"stitch_bound,omitempty"`
	StitchMS    float64 `json:"stitch_ms,omitempty"`
	Truncated   bool    `json:"truncated,omitempty"`
	// Degraded reports the solver gave up exactness to stay inside its
	// memory budget; such results are never exact.
	Degraded bool    `json:"degraded,omitempty"`
	WallMS   float64 `json:"wall_ms"`
}

// WireSolution is the JSON view of a solve.Solution.  Switch schedules
// carry segment starts and hypercontext bit strings; mtswitch schedules
// carry the traceio schedule JSON document verbatim.
type WireSolution struct {
	Kind       string    `json:"kind"`
	Cost       int64     `json:"cost"`
	Exact      bool      `json:"exact"`
	HyperSteps int       `json:"hyper_steps"`
	Stats      WireStats `json:"stats"`

	SegStarts     []int           `json:"seg_starts,omitempty"`
	Hypercontexts []string        `json:"hypercontexts,omitempty"`
	Schedule      json.RawMessage `json:"schedule,omitempty"`
}

// wireMemo renders a solution's wire form exactly once and shares it
// across every job, poll and cache hit serving that solution.
type wireMemo struct {
	once sync.Once
	ws   *WireSolution
	err  error
}

func (m *wireMemo) get(sol *solve.Solution, mt *model.MTSwitchInstance) (*WireSolution, error) {
	m.once.Do(func() { m.ws, m.err = wireSolution(sol, mt) })
	return m.ws, m.err
}

// wireStats maps run statistics onto their wire view.
func wireStats(st solve.Stats) WireStats {
	return WireStats{
		StatesExpanded:       st.StatesExpanded,
		DedupHits:            st.DedupHits,
		CandidatesPruned:     st.CandidatesPruned,
		StatesPruned:         st.StatesPruned,
		DominanceHits:        st.DominanceHits,
		BoundCutoffs:         st.BoundCutoffs,
		IncumbentTightenings: st.IncumbentTightenings,
		PreprocessReduction:  st.PreprocessReduction,
		BudgetDropped:        st.BudgetDropped,
		Evaluations:          st.Evaluations,
		Partitions:           st.Partitions,
		CutColumns:           st.CutColumns,
		StitchBound:          st.StitchBound,
		StitchMS:             float64(st.StitchTime) / float64(time.Millisecond),
		Truncated:            st.Truncated,
		Degraded:             st.Degraded,
		WallMS:               float64(st.WallTime) / float64(time.Millisecond),
	}
}

// statsFromWire inverts wireStats (used by the peer-fill decoder, so a
// peer-served result reports the original solve's work).
func statsFromWire(ws WireStats) solve.Stats {
	return solve.Stats{
		StatesExpanded:       ws.StatesExpanded,
		DedupHits:            ws.DedupHits,
		CandidatesPruned:     ws.CandidatesPruned,
		StatesPruned:         ws.StatesPruned,
		DominanceHits:        ws.DominanceHits,
		BoundCutoffs:         ws.BoundCutoffs,
		IncumbentTightenings: ws.IncumbentTightenings,
		PreprocessReduction:  ws.PreprocessReduction,
		BudgetDropped:        ws.BudgetDropped,
		Evaluations:          ws.Evaluations,
		Partitions:           ws.Partitions,
		CutColumns:           ws.CutColumns,
		StitchBound:          ws.StitchBound,
		StitchTime:           time.Duration(ws.StitchMS * float64(time.Millisecond)),
		Truncated:            ws.Truncated,
		Degraded:             ws.Degraded,
		WallTime:             time.Duration(ws.WallMS * float64(time.Millisecond)),
	}
}

// wireSolution renders a solution; mt is the instance the schedule was
// solved for (nil for single-task kinds).
func wireSolution(sol *solve.Solution, mt *model.MTSwitchInstance) (*WireSolution, error) {
	out := &WireSolution{
		Kind:  sol.Kind.String(),
		Cost:  int64(sol.Cost),
		Exact: sol.Exact,
		Stats: wireStats(sol.Stats),
	}
	switch sol.Kind {
	case solve.KindSwitch:
		out.HyperSteps = len(sol.Seg.Starts)
		out.SegStarts = sol.Seg.Starts
		for _, h := range sol.Hypercontexts {
			out.Hypercontexts = append(out.Hypercontexts, h.String())
		}
	case solve.KindMTSwitch:
		out.HyperSteps = core.HyperCount(sol.MTSched)
		if mt != nil && sol.MTSched != nil {
			var buf bytes.Buffer
			if err := traceio.WriteScheduleJSON(&buf, mt, sol.MTSched); err != nil {
				return nil, err
			}
			out.Schedule = json.RawMessage(buf.Bytes())
		}
	}
	return out, nil
}

// JobStatus is the JSON view of a job, returned by every job endpoint.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Solver string `json:"solver"`
	// Hash is the content-address of the request (instance, solver,
	// options): identical requests report identical hashes.
	Hash string `json:"hash"`
	// CacheHit reports the job was answered from the result cache
	// without running a solver.
	CacheHit bool `json:"cache_hit"`
	// Deduped reports this submit attached to an identical in-flight
	// job instead of enqueueing a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Retried reports the job's worker panicked once and the job was
	// transparently requeued.
	Retried bool `json:"retried,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Result *WireSolution `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}
