package mtswitch

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// Checkpoint serialization for the stepped engine (engine.go).
//
// A checkpoint captures everything a later process needs to continue
// the solve exactly where it stopped: the cost options, the
// search-relevant solver options, the full ORIGINAL instance, and the
// DP's axis state — step counter, current frontier and back-pointer
// generations — on the axis the DP actually runs on (the reduced axis
// when the pruned layer's preprocessing collapsed steps).
//
// Deliberately NOT serialized:
//
//   - Options.Workers: the packed engine does not read it, so a
//     resumed engine needs none.
//   - The candidate catalog, warm-start incumbent, bound tables and
//     preprocessing outcome: all are deterministic functions of the
//     instance and options, recomputed on resume and cross-checked
//     against the serialized axis (a mismatch fails the resume).  So a
//     checkpoint written under an older, looser bound still resumes to
//     the same optimum (DESIGN.md §10).
//   - Per-step frontier frames: a resumed engine re-solves from its
//     restore point; amendments before it trigger a full rebuild.
//
// The decoder is hardened against malformed input — every read is
// bounds-checked, dimensions are capped and cross-validated — so
// arbitrary bytes produce an error, never a panic or a huge
// allocation.  It does not defend against semantically forged
// frontiers (a valid-shaped but wrong frontier yields a wrong
// schedule); checkpoints are trusted data, like a database file.

// checkpointMagic versions the format; bump on layout changes.
const checkpointMagic = "MTE1"

const (
	maxCPTasks   = 4096
	maxCPSteps   = 1 << 20
	maxCPLocal   = 1 << 20
	maxCPName    = 4096
	maxCPFrontEn = 1 << 28 // frontier states / generation entries
)

// Checkpoint serializes the engine's solve state after the step it is
// currently positioned on.  The engine is prepared first if it has
// never stepped (so a checkpoint can be taken before any Advance).
// Instances the packed DP does not apply to (zero steps, fully
// task-sequential cost) are not checkpointable.
func (en *Engine) Checkpoint(ctx context.Context) ([]byte, error) {
	if en.closed {
		return nil, fmt.Errorf("mtswitch: engine is closed")
	}
	if !en.canStep() {
		return nil, fmt.Errorf("mtswitch: instance is not steppable (zero steps or fully task-sequential cost)")
	}
	if err := en.ensurePrepared(ctx); err != nil {
		return nil, err
	}
	e := en.e
	var w cpWriter
	w.bytes([]byte(checkpointMagic))
	w.u8(uint8(en.opt.HyperUpload))
	w.u8(uint8(en.opt.ReconfUpload))
	w.i64(int64(en.o.MaxStates))
	w.i64(int64(en.o.MaxCandidates))
	w.i64(en.o.MaxFrontierBytes)
	w.bool(en.o.DisablePruning)

	// Original instance.
	w.u32(uint32(len(en.tasks)))
	for _, t := range en.tasks {
		w.u32(uint32(len(t.Name)))
		w.bytes([]byte(t.Name))
		w.u32(uint32(t.Local))
		w.i64(int64(t.V))
	}
	w.u32(uint32(en.pub))
	w.i64(int64(en.w))
	n := en.ins.Steps()
	w.u32(uint32(n))
	for j := range en.tasks {
		for i := 0; i < n; i++ {
			w.words(en.ins.Reqs[j][i].Words())
		}
	}

	// Axis state on the target (possibly reduced) axis.
	w.u32(uint32(en.target.Steps()))
	w.u32(uint32(e.lay.setWords))
	w.u32(uint32(e.lay.hyperWords))
	w.bool(en.emptied)
	w.u32(uint32(e.step))
	w.u32(uint32(e.count))
	for i := 0; i < e.count; i++ {
		w.i64(int64(e.costs[i]))
	}
	w.words(e.slab[:e.count*e.lay.setWords])
	for _, g := range e.gens {
		w.u32(uint32(len(g.prev)))
		for _, p := range g.prev {
			w.i64(int64(p))
		}
		w.words(g.hyper)
	}

	// Stats.
	s := e.stats
	for _, v := range []int64{
		s.StatesExpanded, s.DedupHits, s.PeakFrontier, s.ArenaReused,
		s.CandidatesPruned, s.StatesPruned, s.DominanceHits, s.BoundCutoffs,
		s.PreprocessReduction, s.BudgetDropped, s.Evaluations,
	} {
		w.i64(v)
	}
	w.bool(s.Truncated)
	w.bool(s.Degraded)
	return w.buf, nil
}

// checkpointState is the decoded form of a checkpoint.
type checkpointState struct {
	opt model.CostOptions
	o   solve.Options

	tasks []model.Task
	rows  [][]bitset.Set
	pub   int
	w     model.Cost

	axisSteps  int
	setWords   int
	hyperWords int
	emptied    bool
	step       int
	count      int
	costs      []model.Cost
	slab       []uint64
	gens       []generation

	stats solve.Stats
}

// decodeCheckpoint parses and structurally validates a checkpoint.
func decodeCheckpoint(data []byte) (*checkpointState, error) {
	r := &cpReader{b: data}
	magic := r.bytes(len(checkpointMagic))
	if r.err == nil && string(magic) != checkpointMagic {
		return nil, fmt.Errorf("mtswitch: not a checkpoint (bad magic)")
	}
	cp := &checkpointState{}
	cp.opt.HyperUpload = model.UploadMode(r.u8())
	cp.opt.ReconfUpload = model.UploadMode(r.u8())
	if r.err == nil && (cp.opt.HyperUpload > model.TaskSequential || cp.opt.ReconfUpload > model.TaskSequential) {
		return nil, fmt.Errorf("mtswitch: checkpoint has unknown upload mode")
	}
	cp.o.MaxStates = int(r.i64())
	cp.o.MaxCandidates = int(r.i64())
	cp.o.MaxFrontierBytes = r.i64()
	cp.o.DisablePruning = r.bool()
	if r.err == nil {
		if err := cp.o.Validate(); err != nil {
			return nil, fmt.Errorf("mtswitch: checkpoint options: %w", err)
		}
	}

	m := int(r.u32())
	if r.err == nil && (m < 1 || m > maxCPTasks) {
		return nil, fmt.Errorf("mtswitch: checkpoint task count %d outside [1,%d]", m, maxCPTasks)
	}
	if r.err != nil {
		return nil, r.err
	}
	cp.tasks = make([]model.Task, m)
	for j := range cp.tasks {
		nameLen := int(r.u32())
		if r.err == nil && nameLen > maxCPName {
			return nil, fmt.Errorf("mtswitch: checkpoint task name of %d bytes", nameLen)
		}
		if r.err != nil {
			return nil, r.err
		}
		name := r.bytes(nameLen)
		local := int(r.u32())
		if r.err == nil && local > maxCPLocal {
			return nil, fmt.Errorf("mtswitch: checkpoint task universe %d above %d", local, maxCPLocal)
		}
		v := model.Cost(r.i64())
		if r.err != nil {
			return nil, r.err
		}
		cp.tasks[j] = model.Task{Name: string(name), Local: local, V: v}
	}
	cp.pub = int(r.u32())
	cp.w = model.Cost(r.i64())
	n := int(r.u32())
	if r.err == nil && n > maxCPSteps {
		return nil, fmt.Errorf("mtswitch: checkpoint step count %d above %d", n, maxCPSteps)
	}
	if r.err != nil {
		return nil, r.err
	}
	cp.rows = make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		tw := bitset.WordsFor(cp.tasks[j].Local)
		row := make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			words := r.words(tw)
			if r.err != nil {
				return nil, r.err
			}
			if stray(words, cp.tasks[j].Local) {
				return nil, fmt.Errorf("mtswitch: checkpoint requirement bits beyond task %d's universe", j)
			}
			row[i] = bitset.FromWords(cp.tasks[j].Local, words)
		}
		cp.rows[j] = row
	}

	cp.axisSteps = int(r.u32())
	cp.setWords = int(r.u32())
	cp.hyperWords = int(r.u32())
	cp.emptied = r.bool()
	cp.step = int(r.u32())
	cp.count = int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if cp.axisSteps < 1 || cp.axisSteps > maxCPSteps || cp.step < 0 || cp.step > cp.axisSteps {
		return nil, fmt.Errorf("mtswitch: checkpoint step %d outside axis of %d steps", cp.step, cp.axisSteps)
	}
	maxSetWords := 0
	for j := 0; j < m; j++ {
		maxSetWords += bitset.WordsFor(cp.tasks[j].Local)
	}
	if cp.setWords < 1 || cp.setWords > maxSetWords || cp.hyperWords != (m+63)/64 {
		return nil, fmt.Errorf("mtswitch: checkpoint layout %d/%d words inconsistent with %d tasks", cp.setWords, cp.hyperWords, m)
	}
	if cp.count < 1 || cp.count > maxCPFrontEn {
		return nil, fmt.Errorf("mtswitch: checkpoint frontier of %d states", cp.count)
	}
	cp.costs = make([]model.Cost, cp.count)
	for i := range cp.costs {
		cp.costs[i] = model.Cost(r.i64())
	}
	cp.slab = r.words(cp.count * cp.setWords)
	if r.err != nil {
		return nil, r.err
	}
	cp.gens = make([]generation, cp.step)
	prevKept := 1 // the root frontier has exactly one state
	for t := range cp.gens {
		kept := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if kept < 1 || kept > maxCPFrontEn {
			return nil, fmt.Errorf("mtswitch: checkpoint generation %d keeps %d states", t, kept)
		}
		prev := make([]int32, kept)
		for i := range prev {
			p := r.i64()
			if r.err != nil {
				return nil, r.err
			}
			if p < 0 || p >= int64(prevKept) {
				return nil, fmt.Errorf("mtswitch: checkpoint generation %d back-pointer %d outside previous frontier of %d", t, p, prevKept)
			}
			prev[i] = int32(p)
		}
		hyper := r.words(kept * cp.hyperWords)
		if r.err != nil {
			return nil, r.err
		}
		cp.gens[t] = generation{prev: prev, hyper: hyper}
		prevKept = kept
	}
	if cp.count != prevKept {
		return nil, fmt.Errorf("mtswitch: checkpoint frontier of %d states after a generation keeping %d", cp.count, prevKept)
	}

	for _, dst := range []*int64{
		&cp.stats.StatesExpanded, &cp.stats.DedupHits, &cp.stats.PeakFrontier,
		&cp.stats.ArenaReused, &cp.stats.CandidatesPruned, &cp.stats.StatesPruned,
		&cp.stats.DominanceHits, &cp.stats.BoundCutoffs, &cp.stats.PreprocessReduction,
		&cp.stats.BudgetDropped, &cp.stats.Evaluations,
	} {
		*dst = r.i64()
	}
	cp.stats.Truncated = r.bool()
	cp.stats.Degraded = r.bool()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("mtswitch: %d trailing bytes after checkpoint", len(r.b)-r.off)
	}
	return cp, nil
}

// stray reports whether any bit at or beyond the universe size is set
// in a packed vector (FromWords would panic on such input).
func stray(words []uint64, n int) bool {
	if n%64 == 0 {
		return false
	}
	return words[len(words)-1]&^(uint64(1)<<uint(n%64)-1) != 0
}

// ResumeEngine rebuilds an Engine from a checkpoint and positions it
// exactly where Checkpoint captured it.  Everything the checkpoint
// omits — preprocessing, warm start, bound tables, candidate catalog —
// is recomputed deterministically from the serialized instance and options, and the
// recomputed step axis is cross-checked against the serialized one.
func ResumeEngine(ctx context.Context, data []byte, incremental bool) (*Engine, error) {
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	reqs := make([][]bitset.Set, len(cp.rows))
	for j := range cp.rows {
		reqs[j] = cp.rows[j]
	}
	ins, err := model.NewMTSwitchInstance(cp.tasks, reqs)
	if err != nil {
		return nil, fmt.Errorf("mtswitch: checkpoint instance: %w", err)
	}
	ins.PublicGlobal = cp.pub
	ins.W = cp.w

	en := &Engine{
		opt: cp.opt, o: cp.o, incremental: incremental,
		tasks: cp.tasks, rows: cp.rows, pub: cp.pub, w: cp.w, ins: ins,
	}
	if !en.canStep() {
		return nil, fmt.Errorf("mtswitch: checkpoint instance is not steppable")
	}
	if err := en.ensurePrepared(ctx); err != nil {
		return nil, err
	}
	if en.target.Steps() != cp.axisSteps {
		en.Close()
		return nil, fmt.Errorf("mtswitch: checkpoint axis of %d steps, recomputed preprocessing yields %d", cp.axisSteps, en.target.Steps())
	}
	e := en.e
	if e.lay.setWords != cp.setWords || e.lay.hyperWords != cp.hyperWords {
		en.Close()
		return nil, fmt.Errorf("mtswitch: checkpoint layout %d/%d words, recomputed layout %d/%d",
			cp.setWords, cp.hyperWords, e.lay.setWords, e.lay.hyperWords)
	}

	// Overwrite the freshly-initialized root with the captured state.
	e.step = cp.step
	e.count = cp.count
	e.slab = growWords(e.slab, cp.count*cp.setWords)
	copy(e.slab, cp.slab)
	if cap(e.costs) < cp.count {
		e.costs = make([]model.Cost, cp.count)
	}
	e.costs = e.costs[:cp.count]
	copy(e.costs, cp.costs)
	e.gens = append(e.gens[:0], cp.gens...)
	arena := e.stats.ArenaReused
	e.stats = cp.stats
	if arena > e.stats.ArenaReused {
		e.stats.ArenaReused = arena
	}
	en.emptied = cp.emptied

	// A resumed engine has frames only from its restore point onward.
	en.frames = en.frames[:0]
	en.frameBase = cp.step
	if en.keepFrames() {
		en.captureFrame()
	}
	en.lastResolveStart = cp.step
	en.baseExpanded = cp.stats.StatesExpanded
	return en, nil
}

// cpWriter appends little-endian fields to a growing buffer.
type cpWriter struct{ buf []byte }

func (w *cpWriter) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *cpWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *cpWriter) i64(v int64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *cpWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

func (w *cpWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *cpWriter) words(v []uint64) {
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
	}
}

// cpReader consumes little-endian fields with sticky error handling;
// every read is bounds-checked so malformed input can never panic.
type cpReader struct {
	b   []byte
	off int
	err error
}

func (r *cpReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("mtswitch: truncated checkpoint at byte %d", r.off)
	}
}

func (r *cpReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *cpReader) bool() bool { return r.u8() != 0 }

func (r *cpReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *cpReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v)
}

func (r *cpReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}

// words reads n uint64 words, verifying the remaining length BEFORE
// allocating so a forged count cannot trigger a huge allocation.
func (r *cpReader) words(n int) []uint64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > (len(r.b)-r.off)/8 {
		r.fail()
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return v
}
