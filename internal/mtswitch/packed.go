package mtswitch

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
)

// This file is the packed-state frontier engine behind SolveExact: the
// joint-hypercontext DP of the paper's Theorem 1 with the per-state
// allocations of the original implementation (a []bitset.Set per state,
// a string map key per successor, a *state chain per schedule) replaced
// by flat word slabs, 64-bit hash dedup and int32 back-pointers, and
// with each step's expansion factored so that successors every source
// would generate alike are generated once.
//
// Layout.  A frontier state is one joint hypercontext vector: task j's
// current hypercontext occupies taskWords[j] consecutive uint64 words
// at taskOff[j] of a setWords-word vector.  A whole generation lives in
// one contiguous slab (state s = slab[s*setWords:(s+1)*setWords]), so
// building a successor is a handful of word copies into a scratch
// vector and promoting it into the frontier is one copy into the slab —
// no per-state heap objects.  Because schedule reconstruction only
// needs each state's hyperreconfiguration bits and its predecessor
// index, past generations retain just hyperWords words and an int32 per
// state; their set slabs are recycled.
//
// Factored expansion.  A successor depends on its source only through
// the source's cost and the contexts of the tasks that keep, so a step
// walks the sorted frontier and expands each install pattern only from
// the first source that reaches it with given kept contexts
// (expandFrontier has the exactness argument).
//
// Dedup.  Successors are deduplicated by a 64-bit hash of the packed
// vector (bitset.HashWords) probed through an open-addressed table with
// a full-vector compare on hash equality, so two distinct vectors that
// collide in 64 bits still occupy distinct entries.  The cheapest state
// per vector wins; on cost ties the successor from the earlier source
// wins.  A source reaches each vector at most once, so that rule makes
// the surviving entry independent of insertion order.
//
// Order.  A step expands on the calling goroutine: on the 2-vCPU
// reference host, sharding factored steps across a worker pool never
// beat the sequential expansion at any measured step size (DESIGN.md
// §5), so Options.Workers does not reach this engine.  The distinct
// successors are sorted by (cost, vector) — a total order with no ties
// — so the next generation's frontier, the beam truncation beyond
// Options.MaxStates and the final best state are all byte-identical to
// expanding every source in full.

// layout fixes the word geometry of packed states for one instance.
type layout struct {
	m          int
	taskOff    []int
	taskWords  []int
	setWords   int
	hyperWords int
}

func newLayout(ins *model.MTSwitchInstance) layout {
	m := ins.NumTasks()
	lay := layout{m: m, taskOff: make([]int, m), taskWords: make([]int, m), hyperWords: (m + 63) / 64}
	for j := 0; j < m; j++ {
		lay.taskOff[j] = lay.setWords
		lay.taskWords[j] = bitset.WordsFor(ins.Tasks[j].Local)
		lay.setWords += lay.taskWords[j]
	}
	return lay
}

// stride is the words one table entry occupies: the set vector followed
// by the hyperreconfiguration bits.
func (l layout) stride() int { return l.setWords + l.hyperWords }

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wordsSubset reports a ⊆ b.
func wordsSubset(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

func popcountWords(a []uint64) int {
	c := 0
	for _, w := range a {
		c += bits.OnesCount64(w)
	}
	return c
}

// stateTable is an open-addressed hash table over packed states.  Keys
// are the setWords-long vectors at the head of each stride-long entry;
// the hash is recomputed never — it travels with the entry.  hashFn is
// a field so tests can force collisions and exercise the full-vector
// probe path.
type stateTable struct {
	setWords int
	stride   int
	hashFn   func([]uint64) uint64

	// limit, when positive, hard-caps the entry count: inserts of NEW
	// vectors beyond it are dropped (counted in dropped) while merges
	// into existing entries still apply.  This is the memory-budget
	// backstop for a single step's expansion — see the budget notes on
	// the engine.
	limit   int
	dropped int64

	buckets []int32 // entry index + 1; 0 = empty
	mask    uint64

	slab   []uint64
	hashes []uint64
	costs  []model.Cost
	prevs  []int32
}

const initialBuckets = 64

// configure (re)shapes the table for a layout, keeping backing arrays.
func (t *stateTable) configure(lay layout) {
	t.setWords = lay.setWords
	t.stride = lay.stride()
	if t.hashFn == nil {
		t.hashFn = bitset.HashWords
	}
	t.reset()
}

// reset empties the table, retaining capacity.
func (t *stateTable) reset() {
	if len(t.buckets) == 0 {
		t.buckets = make([]int32, initialBuckets)
		t.mask = initialBuckets - 1
	} else {
		for i := range t.buckets {
			t.buckets[i] = 0
		}
	}
	t.slab = t.slab[:0]
	t.hashes = t.hashes[:0]
	t.costs = t.costs[:0]
	t.prevs = t.prevs[:0]
	t.dropped = 0
}

func (t *stateTable) len() int { return len(t.hashes) }

// entry returns entry e's stride-long words (set vector + hyper bits).
func (t *stateTable) entry(e int32) []uint64 {
	return t.slab[int(e)*t.stride : (int(e)+1)*t.stride]
}

// grow doubles the bucket array and reseats every entry.
func (t *stateTable) grow() {
	nb := make([]int32, 2*len(t.buckets))
	mask := uint64(len(nb) - 1)
	for e := range t.hashes {
		i := t.hashes[e] & mask
		for nb[i] != 0 {
			i = (i + 1) & mask
		}
		nb[i] = int32(e) + 1
	}
	t.buckets = nb
	t.mask = mask
}

// insert merges one packed state (stride-long: set vector then hyper
// bits) into the table.  It reports whether the vector was new; when an
// existing entry is costlier, or as cheap but from a later source
// (prev), its cost, origin and hyper bits are overwritten in place (the
// set vector is identical by definition).
func (t *stateTable) insert(state []uint64, h uint64, cost model.Cost, prev int32) bool {
	i := h & t.mask
	for {
		b := t.buckets[i]
		if b == 0 {
			if t.limit > 0 && len(t.hashes) >= t.limit {
				t.dropped++
				return false
			}
			e := int32(len(t.hashes))
			t.buckets[i] = e + 1
			t.slab = append(t.slab, state...)
			t.hashes = append(t.hashes, h)
			t.costs = append(t.costs, cost)
			t.prevs = append(t.prevs, prev)
			if uint64(4*len(t.hashes)) >= 3*(t.mask+1) {
				t.grow()
			}
			return true
		}
		e := b - 1
		if t.hashes[e] == h && wordsEqual(t.entry(e)[:t.setWords], state[:t.setWords]) {
			if cost < t.costs[e] || cost == t.costs[e] && prev < t.prevs[e] {
				t.costs[e] = cost
				t.prevs[e] = prev
				copy(t.entry(e)[t.setWords:], state[t.setWords:])
			}
			return false
		}
		i = (i + 1) & t.mask
	}
}

// packedCands are the canonical install candidates of one (task, step):
// k vectors of taskWords[j] words each, with their precomputed sizes.
type packedCands struct {
	words  []uint64
	counts []model.Cost
	k      int
}

// generation is what a finished step retains for reconstruction.
type generation struct {
	prev  []int32
	hyper []uint64
}

// engine runs the packed DP.  Engines are recycled through a sync.Pool
// (the private-global window DP prices O(n²) windows, each a full
// SolveExact) so the big slabs and tables survive across solves.
type engine struct {
	ins *model.MTSwitchInstance
	opt model.CostOptions
	lay layout

	cands [][]packedCands // [task][step]
	reqs  [][]uint64      // [task] flat n*taskWords[j] requirement words

	// Memory budget (Options.MaxFrontierBytes).  budgetStates is the
	// number of packed states the budget affords (0 = unbudgeted): it
	// caps the beam deterministically at the per-step truncation and
	// hard-caps the step's successor table and, separately, its key
	// table, and budgetWords bounds the candidate catalog.  When the
	// beam cap, the successor cap or the catalog bound actually bites,
	// the run records Stats.Degraded (and Truncated): the result is a
	// valid upper-bound schedule, but — uniquely among the engine's
	// paths — the successor cap drops states in insertion order, so a
	// Degraded frontier depends on the expansion order.  A full key
	// table only costs work (see ownsKey).
	budgetStates int
	budgetWords  int64
	budgetCapped bool

	// Pruned search layer (prune.go); populated from the pruneContext
	// passed into beginSolve, inert when pruneOn is false.
	pruneOn    bool
	incumbent  model.Cost
	mult       []model.Cost   // per-step multiplicities (nil = all ones)
	weights    [][]model.Cost // per-task column weights (nil rows = 1s)
	stepMult   model.Cost     // multAt(step), cached per step
	sufUnion   [][]uint64     // [task] flat (n+1)*taskWords suffix unions
	tailReconf [][]model.Cost // [m+1][n] remaining-task reconf bounds
	sufLB      []model.Cost   // [n+1] remaining-steps cost bounds

	// Expansion scratch (expandFrontier).  table collects the step's
	// distinct successors.  keys holds one entry per (kept contexts,
	// install pattern) pair expanded this step: the successor's set
	// words with the installing tasks' words zeroed, then the pattern
	// as hyper words.  key is the pattern scan's scratch key and cur
	// the scratch successor (set words, then the pattern).
	table    stateTable
	keys     stateTable
	key      []uint64
	cur      []uint64
	src      int32 // the source being expanded, its cost and words
	srcCost  model.Cost
	srcWords []uint64
	keepCnt  []model.Cost // [task] weighted size of the source's context if it can keep, else -1
	skip     []int32      // [task] candidate equal to the source's context, or -1
	minCnt   []model.Cost // [task] cheapest installable candidate's count, or -1
	expanded int64        // successors generated this step
	cut      int64        // bound cutoffs this step

	// Bound margins of the current step (see cuts): the smallest
	// q = bound − incumbent a test cut on (noCut when none did) and the
	// largest one a test kept on (noKeep when none did).
	cutMin, keepMax model.Cost

	// Dominance scratch (dominanceFilter).
	domRes    []uint64
	domCnt    []model.Cost
	domResBuf []uint64
	domCntBuf []model.Cost
	domGroups map[uint64][]int32
	domPeak   int // most groups domGroups has held

	// Current frontier.
	slab  []uint64
	costs []model.Cost
	count int
	step  int

	// maxStates is the per-step beam cap resolved by beginSolve (the
	// Options.MaxStates default, possibly lowered by the byte budget).
	maxStates int

	gens []generation

	perm []int32

	stats solve.Stats
}

var enginePool sync.Pool

func getEngine() *engine {
	if v := enginePool.Get(); v != nil {
		e := v.(*engine)
		e.stats = solve.Stats{ArenaReused: 1}
		return e
	}
	return &engine{}
}

func putEngine(e *engine) {
	e.ins = nil
	e.gens = nil // back-pointer chains go to the caller's Solution path
	e.cands = nil
	e.reqs = nil
	e.mult = nil    // owned by the caller's reduction
	e.weights = nil // owned by the caller's reduction
	enginePool.Put(e)
}

// prepare shapes the engine for one solve.
func (e *engine) prepare(ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options, px *pruneContext) {
	e.ins = ins
	e.opt = opt
	e.lay = newLayout(ins)
	m, n := ins.NumTasks(), ins.Steps()

	e.budgetStates = 0
	e.budgetWords = 0
	e.budgetCapped = false
	if o.MaxFrontierBytes > 0 {
		// One packed state costs its stride in words plus the table
		// bookkeeping (hash, cost, back-pointer, sequence).
		perState := int64(e.lay.stride()*8 + 24)
		bs := o.MaxFrontierBytes / perState
		if bs < 1 {
			bs = 1
		}
		if bs > math.MaxInt32 {
			bs = math.MaxInt32
		}
		e.budgetStates = int(bs)
		e.budgetWords = o.MaxFrontierBytes / 8
		if e.budgetWords < 1 {
			e.budgetWords = 1
		}
	}

	e.table.hashFn = nil // instance hash; tests inject theirs directly
	e.table.limit = e.budgetStates
	e.table.configure(e.lay)
	// The key table is budgeted like the successor table: each entry is
	// a stride-long key plus the same bookkeeping.
	e.keys.hashFn = nil
	e.keys.limit = e.budgetStates
	e.keys.configure(layout{setWords: e.lay.stride()})
	e.key = growWords(e.key, e.lay.stride())
	e.cur = growWords(e.cur, e.lay.stride())
	clear(e.key)
	clear(e.cur)
	e.keepCnt = growCosts(e.keepCnt, m)
	e.minCnt = growCosts(e.minCnt, m)
	if cap(e.skip) < m {
		e.skip = make([]int32, m)
	}
	e.skip = e.skip[:m]

	// Pack the per-task requirement rows for the word-level keep check.
	e.reqs = e.reqs[:0]
	for j := 0; j < m; j++ {
		tw := e.lay.taskWords[j]
		flat := make([]uint64, n*tw)
		for i := 0; i < n; i++ {
			copy(flat[i*tw:(i+1)*tw], ins.Reqs[j][i].Words())
		}
		e.reqs = append(e.reqs, flat)
	}

	e.pruneOn = px != nil
	e.incumbent = 0
	e.mult = nil
	e.weights = nil
	e.stepMult = 1
	if px != nil {
		e.incumbent = px.incumbent
		e.mult = px.mult
		e.weights = px.weights
	}

	e.gens = e.gens[:0]
	e.cutMin, e.keepMax = noCut, noKeep
	e.stats.StatesExpanded = 0
	e.stats.DedupHits = 0
	e.stats.PeakFrontier = 0
	e.stats.CandidatesPruned = 0
	e.stats.StatesPruned = 0
	e.stats.DominanceHits = 0
	e.stats.BoundCutoffs = 0
	e.stats.IncumbentTightenings = 0
	e.stats.PreprocessReduction = 0
	e.stats.BudgetDropped = 0
	e.stats.Truncated = false
	e.stats.Degraded = false
}

func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// buildCandidates computes cand[j][i], the distinct values of U_j(i,e)
// for e ≥ i by growing horizon, directly in packed form, applying the
// MaxCandidates trim (shortest horizons plus the full-suffix union).
//
// The candidate catalog is the engine's other unbounded allocation
// (O(m·n·l) packed vectors worst case), so the frontier byte budget
// covers it too: once the catalog has consumed the budget, every
// further (task, step) keeps only its full-suffix union — the one
// candidate that is always feasible for any horizon — and the run is
// recorded as budget-degraded.  The trim is applied in the sequential
// build order, so candidate-budget degradation is deterministic.  The
// context is checked once per (task, step), bounding cancellation
// latency on catalogs whose construction alone is expensive.
func (e *engine) buildCandidates(ctx context.Context, o solve.Options) error {
	m, n := e.lay.m, e.ins.Steps()
	var candWords int64
	e.cands = make([][]packedCands, m)
	for j := 0; j < m; j++ {
		tw := e.lay.taskWords[j]
		e.cands[j] = make([]packedCands, n)
		acc := bitset.New(e.ins.Tasks[j].Local)
		for i := 0; i < n; i++ {
			if err := solve.Checkpoint(ctx); err != nil {
				return err
			}
			acc.Clear()
			c := packedCands{}
			overBudget := e.budgetWords > 0 && candWords >= e.budgetWords
			var pruned int64
			last := -1
			wj := e.taskWeightsOf(j)
			for end := i; end < n; end++ {
				acc.UnionWith(e.ins.Reqs[j][end])
				// Distinctness is detected on the raw popcount (unions
				// only grow, so raw counts strictly increase across
				// distinct candidates); the stored install price is the
				// weighted size.
				if cnt := acc.Count(); cnt != last {
					if overBudget && c.k == 1 {
						// Overwrite the single slot in place; the loop's
						// final value is the full-suffix union.
						copy(c.words, acc.Words())
						c.counts[0] = weightedCountWords(acc.Words(), wj)
						pruned++
					} else {
						c.words = append(c.words, acc.Words()...)
						c.counts = append(c.counts, weightedCountWords(acc.Words(), wj))
						c.k++
					}
					last = cnt
				}
			}
			if pruned > 0 {
				e.stats.CandidatesPruned += pruned
				e.stats.Truncated = true
				e.stats.Degraded = true
			}
			if o.MaxCandidates > 0 && c.k > o.MaxCandidates {
				e.stats.CandidatesPruned += int64(c.k - o.MaxCandidates)
				keep := o.MaxCandidates - 1
				copy(c.words[keep*tw:(keep+1)*tw], c.words[(c.k-1)*tw:c.k*tw])
				c.counts[keep] = c.counts[c.k-1]
				c.words = c.words[:(keep+1)*tw]
				c.counts = c.counts[:keep+1]
				c.k = keep + 1
			}
			candWords += int64(len(c.words))
			e.cands[j][i] = c
		}
	}
	return nil
}

// reqAt returns task j's packed requirement at step i.
func (e *engine) reqAt(j, i int) []uint64 {
	tw := e.lay.taskWords[j]
	return e.reqs[j][i*tw : (i+1)*tw]
}

func setHyperBit(words []uint64, j int)   { words[j/64] |= 1 << uint(j%64) }
func clearHyperBit(words []uint64, j int) { words[j/64] &^= 1 << uint(j%64) }
func hyperBit(words []uint64, j int) bool { return words[j/64]&(1<<uint(j%64)) != 0 }

// The leaf price and the two admissible cutoffs below are shared by
// the pattern scan (with a lower bound on the reconf term) and by
// pattern expansion (with the exact term), for the source being
// expanded.  hyper and reconf fold the per-task cost terms in task
// order, matching the upload modes' left-fold semantics exactly.  The
// step reconf term is weighted by the run multiplicity from
// preprocessing; the hyper term is paid once per run (installs happen
// before the run's first step, the rest of the run keeps).

// leafTotal prices a complete successor of the current source.
func (e *engine) leafTotal(hyper, reconf model.Cost) model.Cost {
	if e.opt.ReconfUpload == model.TaskSequential {
		reconf += model.Cost(e.ins.PublicGlobal)
	}
	return e.srcCost + hyper + reconf*e.stepMult
}

// rootReconf is the reconf accumulator before task 0 is folded in.
func (e *engine) rootReconf() model.Cost {
	if e.opt.ReconfUpload == model.TaskParallel {
		return model.Cost(e.ins.PublicGlobal)
	}
	return 0
}

// With the pruned layer on, two admissible cutoffs bound the recursion
// against the incumbent: at interior nodes (j > 0) the not-yet-branched
// tasks contribute at least tailReconf[j] to this step's reconf term,
// and at the leaf the remaining steps cost at least sufLB[step+1].  Both
// prune strictly-worse branches only (>, never ≥), so every state on an
// optimal path survives and an untruncated run stays exact.  Both are
// monotone in every argument.  Each call site tests e.pruneOn itself
// and hands the bound to cuts, which keeps the bound and the compare
// inlined on the expansion's hot path.

// interiorBound is the admissible bound on any leaf below an interior
// node at task j > 0.
func (e *engine) interiorBound(j int, hyper, reconf model.Cost) model.Cost {
	rem := e.opt.ReconfUpload.Combine(reconf, e.tailReconf[j][e.step])
	if e.opt.ReconfUpload == model.TaskSequential {
		rem += model.Cost(e.ins.PublicGlobal)
	}
	return e.srcCost + hyper + rem*e.stepMult + e.sufLB[e.step+1]
}

// leafBound is the admissible bound on a leaf of the given step total.
func (e *engine) leafBound(total model.Cost) model.Cost {
	return total + e.sufLB[e.step+1]
}

// Margin sentinels: a step with no cut test, or no kept test.
const (
	noCut  = model.Cost(math.MaxInt64)
	noKeep = model.Cost(math.MinInt64)
)

// cuts decides one bound test, q = bound − incumbent > 0, and folds q
// into the step's margins.  Every q of a step moves by the same amount
// when a changed trace moves sufLB[step+1] and the incumbent, so the
// margins alone tell an incremental Engine whether the step would
// decide every test the same way again (Engine.reconcile).
func (e *engine) cuts(bound model.Cost) bool {
	q := bound - e.incumbent
	if q > 0 {
		e.cut++
		e.cutMin = min(e.cutMin, q)
		return true
	}
	e.keepMax = max(e.keepMax, q)
	return false
}

// expandFrontier generates the step's successors into e.table.  A
// successor of source s under install pattern I (the tasks that install
// a candidate; the rest keep) is x = s restricted to ¬I plus candidates
// on I, and costs c_s + H(I) + R(x): the hyper term depends only on I,
// the reconf term only on x.  So s enters x only through its cost and
// its contexts on ¬I.  expandFrontier walks the (cost, vector)-sorted
// frontier, and for each source a DFS over tasks (scanPatterns)
// enumerates the patterns it can reach; a pattern is expanded
// (expandPattern) only by the first source to reach it with given kept
// contexts — the key (s|¬I, I) in e.keys.  Every other source's copy
// of those successors would lose dedup, so it is never generated.
//
// Exactness.  Let w = (s2, I, choices) be the leaf that wins x when
// every source is expanded in full (SolveExactReference's search).
// Suppose an earlier source s1 owns key (s2|¬I, I).  Then s1 holds x's
// contexts on ¬I, and its leaf for x — I's choices again, or its keep
// branch on each task of I where s1 already holds the chosen candidate
// (the "install the set you could keep" skip) — prices x at
// c_s1 + H(I') + R(x) ≤ c_s2 + H(I) + R(x) with I' ⊆ I and survives
// every cutoff w survives (they are monotone in cost).  Under I' = I,
// s1 expands that leaf itself; under a smaller I', by induction on |I|
// the owner of s1's key for I' — s1 or an earlier source — generates a
// leaf for x no costlier.  Either way x has an entry from a source
// before s2 at no higher cost, which beats w: a contradiction.  So s2
// is the first source to reach its key, expands it, and replays w
// verbatim; every other generated leaf is one of the full expansion's.
// Each surviving vector therefore keeps its (cost, prev, hyper bits),
// and the frontier, generations, dominance, beam and schedule are those
// of full expansion.  A source reaches each vector at most once (a
// task's context says whether it kept, and which candidate it
// installed), so no tie between leaves of one source arises.
//
// The scan carries the expansion's cutoffs, priced with each task's
// cheapest installable candidate, so it never looks up a pattern whose
// every leaf the expansion would cut.  The context is checked once per
// source.  A panic inside the expansion is returned as a
// *solve.PanicError, as from a solve.Pool task, rather than unwinding
// through the caller.
func (e *engine) expandFrontier(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &solve.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	m, sw := e.lay.m, e.lay.setWords
	e.table.reset()
	e.keys.reset()
	e.expanded, e.cut = 0, 0
	e.cutMin, e.keepMax = noCut, noKeep
	for s := 0; s < e.count; s++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return err
		}
		e.src = int32(s)
		e.srcCost = e.costs[s]
		e.srcWords = e.slab[s*sw : (s+1)*sw]
		for j := 0; j < m; j++ {
			off, tw := e.lay.taskOff[j], e.lay.taskWords[j]
			seg := e.srcWords[off : off+tw]
			keep := e.step > 0 && wordsSubset(e.reqAt(j, e.step), seg)
			cnt := model.Cost(-1)
			if keep {
				cnt = weightedCountWords(seg, e.taskWeightsOf(j))
			}
			// Installing a set identical to the kept one costs a
			// hyperreconfiguration for nothing.  Candidates are nested
			// unions, so their sizes never decrease: only those of the
			// kept set's size can equal it, and the cheapest other
			// candidate is the first one not skipped.
			skip, cheapest := int32(-1), model.Cost(-1)
			cnd := &e.cands[j][e.step]
			if keep {
				k, _ := slices.BinarySearch(cnd.counts, cnt)
				for ; k < cnd.k && cnd.counts[k] == cnt; k++ {
					if wordsEqual(cnd.words[k*tw:(k+1)*tw], seg) {
						skip = int32(k)
						break
					}
				}
			}
			switch {
			case skip != 0 && cnd.k > 0:
				cheapest = cnd.counts[0]
			case skip == 0 && cnd.k > 1:
				cheapest = cnd.counts[1]
			}
			e.keepCnt[j] = cnt
			e.skip[j] = skip
			e.minCnt[j] = cheapest
		}
		e.scanPatterns(0, 0, e.rootReconf())
	}
	return nil
}

// scanPatterns branches task j of the current source between keep
// (when the incoming requirement fits) and install (when a candidate
// other than the kept set exists), building the pattern's key in
// e.key; at j == m the source expands the pattern if it owns the key.
func (e *engine) scanPatterns(j int, hyper, reconf model.Cost) {
	m, sw := e.lay.m, e.lay.setWords
	if j == m {
		if e.pruneOn && e.cuts(e.leafBound(e.leafTotal(hyper, reconf))) {
			return
		}
		// Keeping every task reaches the source's own vector, and
		// frontier vectors are distinct: no lookup needed.
		if anyBits(e.key[sw:]) && !e.ownsKey() {
			return
		}
		copy(e.cur[sw:], e.key[sw:])
		e.expandPattern(0, 0, e.rootReconf())
		return
	}
	if e.pruneOn && j > 0 && e.cuts(e.interiorBound(j, hyper, reconf)) {
		return
	}
	off, tw := e.lay.taskOff[j], e.lay.taskWords[j]
	dst := e.key[off : off+tw]
	pattern := e.key[sw:]
	if cnt := e.keepCnt[j]; cnt >= 0 {
		copy(dst, e.srcWords[off:off+tw])
		clearHyperBit(pattern, j)
		e.scanPatterns(j+1, hyper, e.opt.ReconfUpload.Combine(reconf, cnt))
	}
	if cheapest := e.minCnt[j]; cheapest >= 0 {
		clear(dst)
		setHyperBit(pattern, j)
		e.scanPatterns(j+1, e.opt.HyperUpload.Combine(hyper, e.ins.Tasks[j].V),
			e.opt.ReconfUpload.Combine(reconf, cheapest))
	}
}

// ownsKey reports whether the current source is the first to reach the
// scanned key, recording it.  A key the budget-capped table cannot
// record is expanded by every source that reaches it, as full
// expansion would: that costs work, never exactness.
func (e *engine) ownsKey() bool {
	dropped := e.keys.dropped
	return e.keys.insert(e.key, e.keys.hashFn(e.key), 0, e.src) || e.keys.dropped > dropped
}

func anyBits(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// expandPattern branches task j of the current source under the
// pattern in e.cur's hyper words — keep the source's context if j is
// outside it, else install each candidate but the kept set — and
// recurses; at j == m the assembled successor is hashed into e.table.
func (e *engine) expandPattern(j int, hyper, reconf model.Cost) {
	if j == e.lay.m {
		total := e.leafTotal(hyper, reconf)
		if e.pruneOn && e.cuts(e.leafBound(total)) {
			return
		}
		e.expanded++
		e.table.insert(e.cur, e.table.hashFn(e.cur[:e.lay.setWords]), total, e.src)
		return
	}
	if e.pruneOn && j > 0 && e.cuts(e.interiorBound(j, hyper, reconf)) {
		return
	}
	off, tw := e.lay.taskOff[j], e.lay.taskWords[j]
	dst := e.cur[off : off+tw]
	if !hyperBit(e.cur[e.lay.setWords:], j) {
		copy(dst, e.srcWords[off:off+tw])
		e.expandPattern(j+1, hyper, e.opt.ReconfUpload.Combine(reconf, e.keepCnt[j]))
		return
	}
	hyper = e.opt.HyperUpload.Combine(hyper, e.ins.Tasks[j].V)
	cnd := &e.cands[j][e.step]
	for k := 0; k < cnd.k; k++ {
		if int32(k) == e.skip[j] {
			continue
		}
		copy(dst, cnd.words[k*tw:(k+1)*tw])
		e.expandPattern(j+1, hyper, e.opt.ReconfUpload.Combine(reconf, cnd.counts[k]))
	}
}

// initRoot installs the root frontier (every task holds the empty
// hypercontext) and rewinds the step counter.
func (e *engine) initRoot() {
	sw := e.lay.setWords
	e.slab = growWords(e.slab, sw)
	for i := range e.slab {
		e.slab[i] = 0
	}
	if cap(e.costs) < 1 {
		e.costs = make([]model.Cost, 1, 64)
	}
	e.costs = e.costs[:1]
	e.costs[0] = e.ins.W
	e.count = 1
	e.step = 0
}

// stepOnce advances the DP by one step: it expands the frontier
// entering step e.step into the frontier entering step e.step+1 and
// increments the step counter.  Callers drive it from e.step == 0
// (after initRoot) to e.step == Steps().
func (e *engine) stepOnce(ctx context.Context) error {
	n := e.ins.Steps()
	sw := e.lay.setWords
	// Chaos-harness site: injects slowness, errors or panics into
	// the DP's step loop (one atomic load when disarmed).
	if err := faultinject.Fire("mtswitch.step"); err != nil {
		return err
	}
	// Incumbent exchange: adopt an externally published bound (a
	// portfolio contender's best-known full-schedule cost) when it is
	// tighter than our own.  External bounds are valid upper bounds on
	// the optimum, and the cutoffs below are strict (`>`), so adoption
	// never cuts an optimal path — it only changes which cost-optimal
	// schedule survives, never the cost.
	if e.pruneOn {
		if ext, ok := solve.IncumbentFrom(ctx).Best(); ok && ext < e.incumbent {
			e.incumbent = ext
			e.stats.IncumbentTightenings++
		}
	}
	e.stepMult = e.multAt(e.step)
	// Phase 1 — factored expansion into e.table.
	if err := e.expandFrontier(ctx); err != nil {
		return err
	}
	produced := e.expanded
	e.stats.StatesExpanded += produced
	e.stats.BoundCutoffs += e.cut
	t := &e.table
	dropped := t.dropped
	if dropped > 0 {
		// The successor-table budget cap bit: states were dropped
		// before dedup, so the step is a (budget-forced) beam.
		e.stats.BudgetDropped += dropped
		e.stats.Truncated = true
		e.stats.Degraded = true
	}
	unique := t.len()
	if unique == 0 {
		if e.pruneOn {
			return errFrontierEmptied
		}
		return fmt.Errorf("mtswitch: state frontier emptied at step %d", e.step)
	}
	e.stats.DedupHits += produced - dropped - int64(unique)
	if int64(unique) > e.stats.PeakFrontier {
		e.stats.PeakFrontier = int64(unique)
	}

	// Phase 3 — deterministic order: (cost, vector) is a total
	// order over distinct vectors, so sorting needs no stability
	// and the frontier does not depend on insertion order.
	e.perm = e.perm[:0]
	for i := 0; i < unique; i++ {
		e.perm = append(e.perm, int32(i))
	}
	sort.Slice(e.perm, func(a, b int) bool {
		pa, pb := e.perm[a], e.perm[b]
		if t.costs[pa] != t.costs[pb] {
			return t.costs[pa] < t.costs[pb]
		}
		return bitset.CompareWords(t.entry(pa)[:sw], t.entry(pb)[:sw]) < 0
	})
	// Dominance filtering runs on the sorted frontier (so the
	// dominator is always the earlier, no-costlier state) and
	// before any beam truncation, keeping the beam's slots for
	// states that are not redundant.  The last step's frontier is
	// never filtered: with no requirements left, only index 0 (the
	// optimum) matters.
	if e.pruneOn && e.step < n-1 && unique > 1 {
		before := len(e.perm)
		e.dominanceFilter(t)
		e.stats.DominanceHits += int64(before - len(e.perm))
	}
	survivors := len(e.perm)
	kept := survivors
	if kept > e.maxStates {
		kept = e.maxStates
		e.stats.Truncated = true
		if e.budgetCapped {
			e.stats.Degraded = true
			e.stats.BudgetDropped += int64(survivors - kept)
		}
	}

	// Phase 4 — promote the winners into the next frontier and
	// retain this generation's reconstruction data.
	e.slab = growWords(e.slab, kept*sw)
	if cap(e.costs) < kept {
		e.costs = make([]model.Cost, kept)
	}
	e.costs = e.costs[:kept]
	gen := generation{prev: make([]int32, kept), hyper: make([]uint64, kept*e.lay.hyperWords)}
	hw := e.lay.hyperWords
	for r := 0; r < kept; r++ {
		p := e.perm[r]
		st := t.entry(p)
		copy(e.slab[r*sw:(r+1)*sw], st[:sw])
		copy(gen.hyper[r*hw:(r+1)*hw], st[sw:])
		e.costs[r] = t.costs[p]
		gen.prev[r] = t.prevs[p]
	}
	e.count = kept
	e.gens = append(e.gens, gen)
	e.step++
	return nil
}

// beginSolve shapes the engine for a solve and leaves it positioned on
// the root frontier: option resolution, buffer preparation, the
// candidate catalog and the root state.  After a nil return the caller
// drives stepOnce until e.step reaches Steps().
func (e *engine) beginSolve(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options, px *pruneContext) error {
	maxStates := o.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if maxStates > math.MaxInt32 {
		maxStates = math.MaxInt32
	}
	e.prepare(ins, opt, o, px)
	if e.budgetStates > 0 && e.budgetStates < maxStates {
		// The byte budget affords a smaller beam than the state cap:
		// the budget-derived cap becomes the binding one, and any
		// truncation it causes is a budget degradation.
		maxStates = e.budgetStates
		e.budgetCapped = true
	}
	e.maxStates = maxStates
	if e.pruneOn {
		if err := e.computeBounds(ctx); err != nil {
			return err
		}
	}
	if err := e.buildCandidates(ctx, o); err != nil {
		e.stats.StatesPruned = e.stats.DominanceHits + e.stats.BoundCutoffs
		return err
	}
	e.initRoot()
	return nil
}

// finishMask reconstructs the optimal schedule's hyperreconfiguration
// mask from the back-pointer chains of a completed run, with the run's
// final stats (the derived fields filled in; e.stats itself keeps the
// run's state, as frames and checkpoints record it).
func (e *engine) finishMask(o solve.Options) (mask [][]bool, dpCost model.Cost, stats solve.Stats) {
	m, n := e.ins.NumTasks(), e.ins.Steps()
	mask = make([][]bool, m)
	for j := range mask {
		mask[j] = make([]bool, n)
	}
	hw := e.lay.hyperWords
	at := int32(0) // frontier is (cost, vector)-sorted; 0 is the optimum
	dpCost = e.costs[0]
	for i := n - 1; i >= 0; i-- {
		gen := e.gens[i]
		hyper := gen.hyper[int(at)*hw : (int(at)+1)*hw]
		for j := 0; j < m; j++ {
			mask[j][i] = hyperBit(hyper, j)
		}
		at = gen.prev[at]
	}
	stats = e.stats
	stats.Truncated = stats.Truncated || o.MaxCandidates > 0
	stats.StatesPruned = stats.DominanceHits + stats.BoundCutoffs
	return mask, dpCost, stats
}
