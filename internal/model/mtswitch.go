package model

import (
	"fmt"

	"repro/internal/bitset"
)

// Task describes one task of a multi-task switch-model machine.
type Task struct {
	// Name identifies the task in reports (e.g. "LUT1", "MUX").
	Name string
	// Local is l_j, the number of local switches assigned to the task
	// at initialization (|f_j^loc|).
	Local int
	// V is v_j > 0, the cost of one local (partial) hyperreconfiguration
	// of this task.  The paper's typical special case is
	// v_j = |h_j| + |f_j^loc|, which for machines without private global
	// resources reduces to v_j = l_j.
	V Cost
}

// MTSwitchInstance is a fully synchronized multi-task instance of the
// MT-Switch cost model.  All m tasks advance in lockstep through n
// reconfiguration steps; before each step every task may perform a local
// (partial) hyperreconfiguration or a no-hyperreconfiguration operation.
//
// The instance models the paper's Theorem 1 setting: only local
// resources (plus an optional public-global term that enters the
// reconfiguration max/sum, and an optional global-init cost W paid once
// at the start).  Private global resources are handled by the extended
// solver in internal/mtswitch.
type MTSwitchInstance struct {
	Tasks []Task
	// Reqs[j][i] is task j's context requirement at step i, a subset of
	// that task's local switch universe {0..Tasks[j].Local-1}.
	Reqs [][]bitset.Set
	// PublicGlobal is |h^pub|, the number of public global switches
	// reconfigured at every synchronized step (0 if this resource class
	// is absent).  Public global resources require context- or full
	// synchronization.
	PublicGlobal int
	// W is the cost of the single global hyperreconfiguration that
	// opens the analyzed window (0 if there are no global resources and
	// hence no global hyperreconfigurations, as in the SHyRA experiment).
	W Cost
}

// NewMTSwitchInstance validates and builds an instance.  All task
// requirement sequences must have equal length (the machine is fully
// synchronized) and range over their task's local universe.
func NewMTSwitchInstance(tasks []Task, reqs [][]bitset.Set) (*MTSwitchInstance, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("model: instance needs at least one task")
	}
	if len(reqs) != len(tasks) {
		return nil, fmt.Errorf("model: %d requirement sequences for %d tasks", len(reqs), len(tasks))
	}
	n := len(reqs[0])
	for j, t := range tasks {
		if t.Local < 0 {
			return nil, fmt.Errorf("model: task %q has negative local switch count", t.Name)
		}
		if t.V <= 0 {
			return nil, fmt.Errorf("model: task %q needs positive local hyperreconfiguration cost v_j", t.Name)
		}
		if len(reqs[j]) != n {
			return nil, fmt.Errorf("model: task %q has %d steps, task %q has %d (fully synchronized machines need equal lengths)",
				tasks[j].Name, len(reqs[j]), tasks[0].Name, n)
		}
		for i, r := range reqs[j] {
			if r.Universe() != t.Local {
				return nil, fmt.Errorf("model: task %q requirement %d over universe %d, want %d", t.Name, i, r.Universe(), t.Local)
			}
		}
	}
	return &MTSwitchInstance{Tasks: tasks, Reqs: reqs}, nil
}

// NumTasks returns m.
func (ins *MTSwitchInstance) NumTasks() int { return len(ins.Tasks) }

// Steps returns n, the synchronized step count.
func (ins *MTSwitchInstance) Steps() int {
	if len(ins.Reqs) == 0 {
		return 0
	}
	return len(ins.Reqs[0])
}

// TotalLocalSwitches returns Σ_j l_j (48 for SHyRA).
func (ins *MTSwitchInstance) TotalLocalSwitches() int {
	total := 0
	for _, t := range ins.Tasks {
		total += t.Local
	}
	return total
}

// MTSchedule is a candidate solution for a fully synchronized instance:
// which tasks hyperreconfigure before which steps, and the local
// hypercontext each task holds during each step.
type MTSchedule struct {
	// Hyper[j][i] is I_{j,i}: true iff task j performs a local
	// hyperreconfiguration immediately before step i.  Hyper[j][0] must
	// be true for every j — tasks must establish an initial
	// hypercontext.
	Hyper [][]bool
	// Hctx[j][i] is the local hypercontext of task j in effect during
	// step i.  If Hyper[j][i] is false it must equal Hctx[j][i-1].
	Hctx [][]bitset.Set
}

// CostOptions selects the upload discipline for the two operation kinds.
// The paper's SHyRA experiment uses TaskParallel for both.
type CostOptions struct {
	HyperUpload  UploadMode
	ReconfUpload UploadMode
}

// Validate checks schedule shape and semantics against the instance:
// initial hyperreconfigurations present, hypercontexts persistent across
// no-hyperreconfiguration steps, and every requirement satisfied by the
// hypercontext in effect.
func (ins *MTSwitchInstance) Validate(s *MTSchedule) error {
	m, n := ins.NumTasks(), ins.Steps()
	if len(s.Hyper) != m || len(s.Hctx) != m {
		return fmt.Errorf("model: schedule has %d/%d task rows, want %d", len(s.Hyper), len(s.Hctx), m)
	}
	for j := 0; j < m; j++ {
		if len(s.Hyper[j]) != n || len(s.Hctx[j]) != n {
			return fmt.Errorf("model: task %q schedule has %d/%d steps, want %d", ins.Tasks[j].Name, len(s.Hyper[j]), len(s.Hctx[j]), n)
		}
		if n > 0 && !s.Hyper[j][0] {
			return fmt.Errorf("model: task %q must hyperreconfigure before step 0", ins.Tasks[j].Name)
		}
		for i := 0; i < n; i++ {
			h := s.Hctx[j][i]
			if h.Universe() != ins.Tasks[j].Local {
				return fmt.Errorf("model: task %q hypercontext %d over universe %d, want %d", ins.Tasks[j].Name, i, h.Universe(), ins.Tasks[j].Local)
			}
			if !s.Hyper[j][i] && !h.Equal(s.Hctx[j][i-1]) {
				return fmt.Errorf("model: task %q changed hypercontext at step %d without hyperreconfiguring", ins.Tasks[j].Name, i)
			}
			if !ins.Reqs[j][i].IsSubsetOf(h) {
				return fmt.Errorf("model: task %q requirement at step %d not satisfied by its hypercontext", ins.Tasks[j].Name, i)
			}
		}
	}
	return nil
}

// Cost prices a schedule under the fully synchronized MT-Switch model.
// With task-parallel uploads the total is
//
//	W + Σ_i ( max_j I_{j,i}·v_j + max{ |h^pub|, max_j |h_{j,i}| } )
//
// and task-sequential uploads replace the corresponding max by a sum
// (the public-global term joins the sum as well).  The schedule is
// validated first.
func (ins *MTSwitchInstance) Cost(s *MTSchedule, opt CostOptions) (Cost, error) {
	if err := ins.Validate(s); err != nil {
		return 0, err
	}
	var rows stepRows
	install, size := rows.of(ins.NumTasks())
	total := ins.W
	for i := 0; i < ins.Steps(); i++ {
		s.stepRow(i, install, size)
		hyper, reconf := ins.StepCost(install, size, opt)
		total += hyper + reconf
	}
	return total, nil
}

// StepCosts returns the per-step (hyper, reconf) cost pairs of a valid
// schedule, for reporting and figure generation.
func (ins *MTSwitchInstance) StepCosts(s *MTSchedule, opt CostOptions) ([]Cost, []Cost, error) {
	if err := ins.Validate(s); err != nil {
		return nil, nil, err
	}
	var rows stepRows
	install, size := rows.of(ins.NumTasks())
	n := ins.Steps()
	hyperCosts := make([]Cost, n)
	reconfCosts := make([]Cost, n)
	for i := 0; i < n; i++ {
		s.stepRow(i, install, size)
		hyperCosts[i], reconfCosts[i] = ins.StepCost(install, size, opt)
	}
	return hyperCosts, reconfCosts, nil
}

// stepRows holds one step's per-task install flags and hypercontext
// sizes, on the stack for up to eight tasks.
type stepRows struct {
	install [8]bool
	size    [8]Cost
}

func (r *stepRows) of(m int) ([]bool, []Cost) {
	if m > len(r.install) {
		return make([]bool, m), make([]Cost, m)
	}
	return r.install[:m], r.size[:m]
}

// stepRow reads step i's install flags and hypercontext sizes.
func (s *MTSchedule) stepRow(i int, install []bool, size []Cost) {
	for j := range install {
		install[j] = s.Hyper[j][i]
		size[j] = Cost(s.Hctx[j][i].Count())
	}
}

// StepCost is the price of one synchronized step, given each task's
// hyperreconfiguration flag I_{j,i} (install) and hypercontext size
// |h_{j,i}| (size): the hyper term max_j I_{j,i}·v_j and the reconf term
// max{ |h^pub|, max_j |h_{j,i}| } under task-parallel uploads, the
// corresponding sums under task-sequential ones.  It is the model's
// one per-step formula: Cost, StepCosts and every caller that prices a
// step without a schedule go through it.
func (ins *MTSwitchInstance) StepCost(install []bool, size []Cost, opt CostOptions) (hyper, reconf Cost) {
	for j, in := range install {
		if in {
			hyper = opt.HyperUpload.Combine(hyper, ins.Tasks[j].V)
		}
	}
	reconf = Cost(ins.PublicGlobal)
	for _, c := range size {
		reconf = opt.ReconfUpload.Combine(reconf, c)
	}
	return hyper, reconf
}

// CanonicalSchedule expands hyperreconfiguration masks into a full
// schedule by giving every segment its cheapest valid hypercontext: the
// union of the segment's requirements.  Hyper[j][0] is forced true.
func (ins *MTSwitchInstance) CanonicalSchedule(hyper [][]bool) (*MTSchedule, error) {
	m, n := ins.NumTasks(), ins.Steps()
	if len(hyper) != m {
		return nil, fmt.Errorf("model: %d hyper rows for %d tasks", len(hyper), m)
	}
	s := &MTSchedule{Hyper: make([][]bool, m), Hctx: make([][]bitset.Set, m)}
	for j := 0; j < m; j++ {
		if len(hyper[j]) != n {
			return nil, fmt.Errorf("model: task %q hyper row has %d steps, want %d", ins.Tasks[j].Name, len(hyper[j]), n)
		}
		row := append([]bool(nil), hyper[j]...)
		if n > 0 {
			row[0] = true
		}
		s.Hyper[j] = row
		s.Hctx[j] = make([]bitset.Set, n)
		// Walk segments: [start, end) between consecutive true flags.
		for start := 0; start < n; {
			end := start + 1
			for end < n && !row[end] {
				end++
			}
			u := bitset.New(ins.Tasks[j].Local)
			for i := start; i < end; i++ {
				u.UnionWith(ins.Reqs[j][i])
			}
			for i := start; i < end; i++ {
				s.Hctx[j][i] = u
			}
			start = end
		}
	}
	return s, nil
}

// DisabledCost is the hyperreconfiguration-off baseline: the monolithic
// machine uploads all Σ_j l_j (+ public global) bits at every one of the
// n steps.  For the SHyRA counter trace this is the paper's 5280.
func (ins *MTSwitchInstance) DisabledCost() Cost {
	return Cost(ins.Steps()) * Cost(ins.TotalLocalSwitches()+ins.PublicGlobal)
}

// SingleTaskView flattens the multi-task instance into one combined
// task over the disjoint union of all local switch universes, as in the
// paper's m=1 comparison where LUT1, LUT2, MUX and DeMUX are a single
// task.  The hyperreconfiguration cost of the combined task defaults to
// the total switch count (the paper's typical special case w = |X|).
func (ins *MTSwitchInstance) SingleTaskView() (*SwitchInstance, error) {
	total := ins.TotalLocalSwitches()
	n := ins.Steps()
	reqs := make([]bitset.Set, n)
	for i := 0; i < n; i++ {
		u := bitset.New(total)
		off := 0
		for j, t := range ins.Tasks {
			ins.Reqs[j][i].ForEach(func(b int) { u.Add(off + b) })
			off += t.Local
		}
		reqs[i] = u
	}
	w := Cost(total)
	if w == 0 {
		w = 1
	}
	return NewSwitchInstance(total, w, reqs)
}

// TaskOffsets returns the starting index of each task's switches in the
// flattened single-task universe, plus the total size.  Offsets follow
// task order.
func (ins *MTSwitchInstance) TaskOffsets() ([]int, int) {
	offs := make([]int, len(ins.Tasks))
	off := 0
	for j, t := range ins.Tasks {
		offs[j] = off
		off += t.Local
	}
	return offs, off
}
