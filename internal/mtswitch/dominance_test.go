package mtswitch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
)

// dominanceFilterMap is the map-grouped form of dominanceFilter, kept
// as its reference: groups are a map from residue hash to the kept
// states' indices, compared in insertion order up to domGroupCap.  It
// returns the kept order and leaves e.perm alone.
func dominanceFilterMap(e *engine, t *stateTable) []int32 {
	m, sw := e.lay.m, e.lay.setWords
	next := e.step + 1
	groups := make(map[uint64][]int32)
	var keptRes []uint64
	var keptCnt []model.Cost
	res := make([]uint64, sw)
	cnt := make([]model.Cost, m)
	var kept []int32
	var nk int32
	for _, p := range e.perm {
		st := t.entry(p)
		for j := 0; j < m; j++ {
			off, tw := e.lay.taskOff[j], e.lay.taskWords[j]
			suf := e.sufUnion[j][next*tw : (next+1)*tw]
			for w := 0; w < tw; w++ {
				res[off+w] = st[off+w] & suf[w]
			}
			cnt[j] = weightedCountWords(st[off:off+tw], e.taskWeightsOf(j))
		}
		h := bitset.HashWords(res)
		group := groups[h]
		lim := min(len(group), domGroupCap)
		dominated := false
		for _, k := range group[:lim] {
			if !wordsEqual(keptRes[int(k)*sw:(int(k)+1)*sw], res) {
				continue
			}
			le := true
			for j := 0; j < m; j++ {
				if keptCnt[int(k)*m+j] > cnt[j] {
					le = false
					break
				}
			}
			if le {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		keptRes = append(keptRes, res...)
		keptCnt = append(keptCnt, cnt...)
		groups[h] = append(group, nk)
		nk++
		kept = append(kept, p)
	}
	return kept
}

// domCase is one synthetic frontier for the dominance differential.
type domCase struct {
	name     string
	locals   []int   // task universes
	steps    int     // n; the filter reads suffix unions at step+1
	step     int     // the step being filtered (at most n−2)
	states   int     // frontier size before dedup
	pool     int     // distinct per-task contexts drawn from (0 = free)
	sufDense float64 // density of the suffix unions at step+1
	weighted bool    // random column weights
	costs    int     // costs drawn from [0, costs)
	setup    func(*domCase) ([][]uint64, []model.Cost)
}

// buildDomFrontier fills e (pooled: its dominance scratch survives)
// and a fresh state table with one synthetic sorted frontier.
func buildDomFrontier(t *testing.T, e *engine, c *domCase, r *rand.Rand) *stateTable {
	t.Helper()
	tasks := make([]model.Task, len(c.locals))
	for j, l := range c.locals {
		tasks[j] = model.Task{Name: "T", Local: l, V: 1}
	}
	e.lay = newLayout(&model.MTSwitchInstance{Tasks: tasks})
	e.step = c.step
	e.weights = nil
	if c.weighted {
		e.weights = make([][]model.Cost, len(c.locals))
		for j, l := range c.locals {
			e.weights[j] = make([]model.Cost, l)
			for b := range e.weights[j] {
				e.weights[j][b] = model.Cost(1 + r.Intn(4))
			}
		}
	}
	randomSet := func(l int, density float64) []uint64 {
		s := bitset.New(l)
		for b := 0; b < l; b++ {
			if r.Float64() < density {
				s.Add(b)
			}
		}
		return s.Words()
	}
	e.sufUnion = make([][]uint64, len(c.locals))
	for j, l := range c.locals {
		tw := e.lay.taskWords[j]
		e.sufUnion[j] = make([]uint64, (c.steps+1)*tw)
		copy(e.sufUnion[j][(c.step+1)*tw:], randomSet(l, c.sufDense))
	}

	var vectors [][]uint64
	var costs []model.Cost
	if c.setup != nil {
		vectors, costs = c.setup(c)
	} else {
		pools := make([][][]uint64, len(c.locals))
		for j, l := range c.locals {
			for k := 0; k < c.pool; k++ {
				pools[j] = append(pools[j], randomSet(l, 0.5))
			}
		}
		for s := 0; s < c.states; s++ {
			var v []uint64
			for j, l := range c.locals {
				if c.pool > 0 {
					v = append(v, pools[j][r.Intn(c.pool)]...)
				} else {
					v = append(v, randomSet(l, 0.5)...)
				}
			}
			vectors = append(vectors, v)
			costs = append(costs, model.Cost(r.Intn(max(c.costs, 1))))
		}
	}

	tab := &stateTable{}
	tab.configure(e.lay)
	entry := make([]uint64, e.lay.stride())
	for i, v := range vectors {
		copy(entry, v)
		tab.insert(entry, bitset.HashWords(v), costs[i], 0)
	}
	sw := e.lay.setWords
	e.perm = e.perm[:0]
	for i := 0; i < tab.len(); i++ {
		e.perm = append(e.perm, int32(i))
	}
	sort.Slice(e.perm, func(a, b int) bool {
		pa, pb := e.perm[a], e.perm[b]
		if tab.costs[pa] != tab.costs[pb] {
			return tab.costs[pa] < tab.costs[pb]
		}
		return bitset.CompareWords(tab.entry(pa)[:sw], tab.entry(pb)[:sw]) < 0
	})
	return tab
}

// TestDominanceFilterMatchesMapGroups pins the slot-table filter to
// the map-grouped reference on synthetic sorted frontiers: one residue
// shared by more states than domGroupCap, many residues, column
// weights, a task wider than 64 columns and the last filtered step.
// One engine runs every case in turn, largest frontier first, as a
// pooled engine would.
func TestDominanceFilterMatchesMapGroups(t *testing.T) {
	// overCap builds one residue group (the suffix union is empty, so
	// every residue is zero) of 2·domGroupCap cost-0 members whose
	// sizes trade off — member k holds k columns of task 0 and
	// 149 − k of task 1, so none dominates another — followed by
	// cost-1 states of the same sizes on shifted columns.  Such a state
	// has exactly one dominator, member k: the filter drops it when k
	// is among the first domGroupCap members in sorted order and keeps
	// it otherwise.
	overCap := func(c *domCase) ([][]uint64, []model.Cost) {
		var vectors [][]uint64
		var costs []model.Cost
		add := func(k, shift int, cost model.Cost) {
			a, b := bitset.New(c.locals[0]), bitset.New(c.locals[1])
			for x := 0; x < k; x++ {
				a.Add(x + shift)
			}
			for x := 0; x < 149-k; x++ {
				b.Add(x + shift)
			}
			vectors = append(vectors, append(slices.Clone(a.Words()), b.Words()...))
			costs = append(costs, cost)
		}
		for k := 0; k < 2*domGroupCap; k++ {
			add(k, 0, 0)
		}
		for k := 1; k < 2*domGroupCap; k += 3 {
			add(k, 1, 1)
		}
		return vectors, costs
	}
	cases := []domCase{
		{name: "many-residues-wide", locals: []int{130, 20}, steps: 40, step: 10, states: 3000, pool: 30, sufDense: 0.1, costs: 50},
		{name: "one-residue-over-cap", locals: []int{150, 150}, steps: 4, step: 0, sufDense: 0, costs: 1, setup: overCap},
		{name: "several-residues", locals: []int{10, 12, 6}, steps: 8, step: 3, states: 800, pool: 6, sufDense: 0.3, costs: 20},
		{name: "weighted", locals: []int{16, 16}, steps: 8, step: 2, states: 600, pool: 8, sufDense: 0.25, weighted: true, costs: 10},
		{name: "weighted-wide", locals: []int{70}, steps: 5, step: 1, states: 500, pool: 40, sufDense: 0.05, weighted: true, costs: 8},
		{name: "last-filtered-step", locals: []int{9, 9}, steps: 6, step: 4, states: 300, pool: 10, sufDense: 0.3, costs: 12},
		{name: "free-contexts", locals: []int{5, 7}, steps: 3, step: 0, states: 200, sufDense: 0.5, costs: 6},
		{name: "tiny", locals: []int{3}, steps: 3, step: 1, states: 3, sufDense: 1, costs: 2},
	}
	r := rand.New(rand.NewSource(3))
	e := &engine{}
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			tab := buildDomFrontier(t, e, &c, r)
			want := dominanceFilterMap(e, tab)
			before := len(e.perm)
			e.dominanceFilter(tab)
			if !slices.Equal(e.perm, want) {
				t.Fatalf("%s rep %d: kept %d of %d states %v, reference kept %d %v",
					c.name, rep, len(e.perm), before, e.perm, len(want), want)
			}
			if rep == 0 {
				t.Logf("%s: %d of %d states kept", c.name, len(want), before)
			}
		}
	}
}
