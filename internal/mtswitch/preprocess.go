package mtswitch

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/model"
)

// Instance preprocessing for the pruned search layer (DESIGN.md §9.3).
// Two structure-exploiting reductions shrink the DP before it starts:
//
//   - Step run-length compression: consecutive steps whose requirements
//     are identical for EVERY task collapse into one step carrying a
//     multiplicity.  Some optimal schedule installs only at run starts
//     (an install strictly inside a run can always be moved onto an
//     adjacent install step or run boundary without increasing the
//     cost), so the DP over the collapsed steps — with per-step reconf
//     terms multiplied by the run length and hyper terms paid once —
//     has the same optimum.
//
//   - Duplicate-column grouping: two switches of one task that appear
//     in exactly the same set of steps are interchangeable; canonical
//     hypercontexts (unions of requirements) always contain either all
//     or none of such a group.  The group becomes one reduced column
//     whose weight (the member count) prices every popcount, and
//     switches appearing in no requirement are dropped entirely.
//
// Both reductions are exact for every upload-mode combination; the
// engine consumes them through pruneContext.mult and .weights.

// reduction is the outcome of preprocessing one instance.  A nil
// *reduction means the instance is structurally irreducible and the DP
// should run on the original form.
type reduction struct {
	// ins is the reduced instance the DP runs on.
	ins *model.MTSwitchInstance
	// weights[j][c] is how many original columns reduced column c of
	// task j stands for; a nil row means task j kept its original
	// universe (all weights 1).
	weights [][]model.Cost
	// mult[t] is how many original steps reduced step t stands for;
	// nil when no steps collapsed.
	mult []model.Cost
	// runStart[t] is the original index of reduced step t's first step.
	runStart []int
	// origSteps is the original step count n.
	origSteps int
	// cells is the number of requirement-matrix cells removed,
	// Σ_j (l_j·n − l'_j·n') — reported as Stats.PreprocessReduction.
	cells int64
}

// preprocess reduces an instance.  It returns nil when nothing can be
// collapsed (the caller then solves the original instance directly).
func preprocess(ins *model.MTSwitchInstance) *reduction {
	m, n := ins.NumTasks(), ins.Steps()
	if n == 0 {
		return nil
	}

	// Step run-length compression: a new run starts wherever any task's
	// requirement differs from the previous step's.
	runStart := make([]int, 0, n)
	runStart = append(runStart, 0)
	for i := 1; i < n; i++ {
		for j := 0; j < m; j++ {
			if !ins.Reqs[j][i].Equal(ins.Reqs[j][i-1]) {
				runStart = append(runStart, i)
				break
			}
		}
	}
	nr := len(runStart)

	// Duplicate-column grouping per task, over the collapsed steps
	// (runs are requirement-constant, so the signature over run starts
	// is the signature over all steps).
	tasks := make([]model.Task, m)
	reqs := make([][]bitset.Set, m)
	weights := make([][]model.Cost, m)
	grouped := false
	var cells int64
	runRows := make([]bitset.Set, nr)
	for j := 0; j < m; j++ {
		l := ins.Tasks[j].Local
		for t, i := range runStart {
			runRows[t] = ins.Reqs[j][i]
		}
		sigs, sigLen, used := columnSignatures(runRows, l)
		groupOf := make([]int, l)
		index := make(map[string]int)
		var wts []model.Cost
		for b := 0; b < l; b++ {
			if !used[b] {
				groupOf[b] = -1
				continue
			}
			sig := sigs[b*sigLen : (b+1)*sigLen]
			g, ok := index[string(sig)]
			if !ok {
				g = len(wts)
				index[string(sig)] = g
				wts = append(wts, 0)
			}
			groupOf[b] = g
			wts[g]++
		}
		lr := len(wts)
		tasks[j] = model.Task{Name: ins.Tasks[j].Name, Local: lr, V: ins.Tasks[j].V}
		rr := make([]bitset.Set, nr)
		for t, row := range runRows {
			s := bitset.New(lr)
			row.ForEach(func(b int) {
				s.Add(groupOf[b])
			})
			rr[t] = s
		}
		reqs[j] = rr
		unweighted := lr == l
		if unweighted {
			for _, w := range wts {
				if w != 1 {
					unweighted = false
					break
				}
			}
		}
		if unweighted {
			weights[j] = nil
		} else {
			weights[j] = wts
			grouped = true
		}
		cells += int64(l)*int64(n) - int64(lr)*int64(nr)
	}

	if nr == n && !grouped {
		return nil
	}
	red, err := model.NewMTSwitchInstance(tasks, reqs)
	if err != nil {
		// Cannot happen for a valid input instance; fall back to the
		// original form rather than fail the solve.
		return nil
	}
	red.PublicGlobal = ins.PublicGlobal
	red.W = ins.W

	r := &reduction{ins: red, weights: weights, runStart: runStart, origSteps: n, cells: cells}
	if nr != n {
		r.mult = make([]model.Cost, nr)
		for t := 0; t < nr; t++ {
			end := n
			if t+1 < nr {
				end = runStart[t+1]
			}
			r.mult[t] = model.Cost(end - runStart[t])
		}
	}
	if !grouped {
		r.weights = nil
	}
	return r
}

// expandMask maps a hyperreconfiguration mask over the reduced steps
// back to the original step axis: an install at reduced step t lands on
// the first step of its run.
func (r *reduction) expandMask(mask [][]bool) [][]bool {
	out := make([][]bool, len(mask))
	for j, row := range mask {
		full := make([]bool, r.origSteps)
		for t, v := range row {
			if v {
				full[r.runStart[t]] = true
			}
		}
		out[j] = full
	}
	return out
}

// taskWeights returns the column weights of task j (nil = all ones).
func (r *reduction) taskWeights(j int) []model.Cost {
	if r == nil || r.weights == nil {
		return nil
	}
	return r.weights[j]
}

// CanonicalForm serializes the structural content of an instance in a
// form invariant under task renaming, task reordering, the placement of
// duplicate switch columns and the presence of never-required columns.
// Two instances with equal canonical forms (and equal cost options)
// have the same optimal cost, and any valid schedule of one maps to a
// valid, equal-cost schedule of the other by permuting task rows —
// which is how the hyperd result cache shares entries between
// structurally identical requests (see internal/service).
//
// The returned perm is the task permutation behind the form: perm[c]
// is the index in ins.Tasks of the task serialized at canonical
// position c (ties between identical tasks resolve by original index).
func CanonicalForm(ins *model.MTSwitchInstance) ([]byte, []int) {
	m, n := ins.NumTasks(), ins.Steps()
	blobs := make([][]byte, m)
	for j := 0; j < m; j++ {
		blobs[j] = taskFingerprint(ins, j)
	}
	perm := make([]int, m)
	for c := range perm {
		perm[c] = c
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return bytes.Compare(blobs[perm[a]], blobs[perm[b]]) < 0
	})
	var out bytes.Buffer
	fmt.Fprintf(&out, "mtcanon\x00%d\x00%d\x00%d\x00%d\x00", m, n, ins.PublicGlobal, ins.W)
	for _, j := range perm {
		out.Write(blobs[j])
	}
	return out.Bytes(), perm
}

// taskFingerprint serializes one task as its cost v_j plus the sorted
// multiset of (column signature, multiplicity) groups, where a column's
// signature is its membership pattern across all steps.  Column order,
// unused columns and the task name do not enter the fingerprint.
func taskFingerprint(ins *model.MTSwitchInstance, j int) []byte {
	sigs, sigLen, used := columnSignatures(ins.Reqs[j], ins.Tasks[j].Local)
	type group struct {
		sig    string
		weight int64
	}
	index := make(map[string]int)
	var groups []group
	for b, u := range used {
		if !u {
			continue
		}
		sig := sigs[b*sigLen : (b+1)*sigLen]
		if g, ok := index[string(sig)]; ok {
			groups[g].weight++
		} else {
			key := string(sig)
			index[key] = len(groups)
			groups = append(groups, group{sig: key, weight: 1})
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].sig < groups[b].sig })
	out := make([]byte, 0, 32+len(groups)*(sigLen+8))
	out = append(out, "task\x00"...)
	out = append(strconv.AppendInt(out, int64(ins.Tasks[j].V), 10), 0)
	out = append(strconv.AppendInt(out, int64(len(groups)), 10), 0)
	out = append(strconv.AppendInt(out, int64(sigLen), 10), 0)
	for _, g := range groups {
		out = append(strconv.AppendInt(out, g.weight, 10), 0)
		out = append(out, g.sig...)
	}
	return out
}

// columnSignatures returns every column's membership pattern over
// rows — sigLen = ⌈len(rows)/8⌉ bytes a column, row t at bit t%8 of
// byte t/8 — and which columns any row requires, built by walking each
// row's set bits.
func columnSignatures(rows []bitset.Set, local int) (sigs []byte, sigLen int, used []bool) {
	sigLen = (len(rows) + 7) / 8
	sigs = make([]byte, local*sigLen)
	used = make([]bool, local)
	for t, r := range rows {
		for wi, w := range r.Words() {
			for ; w != 0; w &= w - 1 {
				b := wi*64 + bits.TrailingZeros64(w)
				sigs[b*sigLen+t/8] |= 1 << (t % 8)
				used[b] = true
			}
		}
	}
	return sigs, sigLen, used
}
