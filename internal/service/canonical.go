package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
)

// Canonical result sharing (the second cache level).  The exact cache
// keys on the literal instance, so two structurally identical requests
// — same problem up to task order, task names, switch-column labels
// and never-required columns — occupy separate lines.
// mtswitch.CanonicalForm erases exactly those differences, and any
// schedule of one instance maps to an equal-cost schedule of the other
// by permuting task rows; the canonical store exploits that by caching
// the hyperreconfiguration mask in canonical task order and replaying
// it onto each requester's own instance.

// canonicalEntry is one stored result: the mask rows in canonical task
// order plus the completed solve's cost, exactness and statistics.  An
// entry is never written once it is in the store, so a peer lookup may
// read it without the server lock.
type canonicalEntry struct {
	mask  [][]bool
	cost  model.Cost
	exact bool
	stats solve.Stats
}

// canonicalMTKey addresses the canonical store: solver + options +
// upload modes + the instance's canonical form.  The returned perm is
// CanonicalForm's task permutation (perm[c] = requester's task index at
// canonical position c), needed to translate masks in and out.
func canonicalMTKey(mt *model.MTSwitchInstance, cost model.CostOptions, solver string, opts solve.Options) (string, []int) {
	form, perm := mtswitch.CanonicalForm(mt)
	h := sha256.New()
	fmt.Fprintf(h, "canon\x00%s\x00%d\x00%d\x00", solver, cost.HyperUpload, cost.ReconfUpload)
	writeOptions(h, opts)
	h.Write(form)
	return hex.EncodeToString(h.Sum(nil)), perm
}

// entryFromSolution maps a completed solution's mask into canonical
// task order (nil when the solution carries no schedule).
func entryFromSolution(sol *solve.Solution, perm []int) *canonicalEntry {
	if sol.MTSched == nil || len(perm) != len(sol.MTSched.Hyper) {
		return nil
	}
	mask := make([][]bool, len(perm))
	for c, j := range perm {
		row := make([]bool, len(sol.MTSched.Hyper[j]))
		copy(row, sol.MTSched.Hyper[j])
		mask[c] = row
	}
	return &canonicalEntry{mask: mask, cost: sol.Cost, exact: sol.Exact, stats: sol.Stats}
}

// reconstruct replays the stored canonical mask onto the requester's
// instance: permute the rows back, canonicalize the hypercontexts and
// reprice.  The repriced cost must equal the stored cost — canonical
// forms agree, so any discrepancy means the entry does not actually fit
// this instance and the lookup is treated as a miss.
func (e *canonicalEntry) reconstruct(mt *model.MTSwitchInstance, cost model.CostOptions, perm []int) (*solve.Solution, bool) {
	if len(perm) != len(e.mask) || mt.NumTasks() != len(perm) {
		return nil, false
	}
	mask := make([][]bool, len(perm))
	for c, j := range perm {
		if len(e.mask[c]) != mt.Steps() {
			return nil, false
		}
		mask[j] = e.mask[c]
	}
	sched, err := mt.CanonicalSchedule(mask)
	if err != nil {
		return nil, false
	}
	got, err := mt.Cost(sched, cost)
	if err != nil || got != e.cost {
		return nil, false
	}
	return &solve.Solution{
		Kind:    solve.KindMTSwitch,
		Cost:    e.cost,
		Exact:   e.exact,
		Stats:   e.stats,
		MTSched: sched,
	}, true
}

// canonicalCache is the typed view of the LRU from canonical key to
// entry, structured like resultCache (non-positive capacity disables
// it).
type canonicalCache struct {
	lru *lruCache
}

func newCanonicalCache(capacity int) *canonicalCache {
	return &canonicalCache{lru: newLRUCache(capacity)}
}

func (c *canonicalCache) Get(key string) (*canonicalEntry, bool) {
	v, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*canonicalEntry), true
}

func (c *canonicalCache) Put(key string, res *canonicalEntry) {
	if res == nil {
		return
	}
	c.lru.Put(key, res)
}
