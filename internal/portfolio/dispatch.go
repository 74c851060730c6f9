package portfolio

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/partition"
)

// Features are the coarse instance descriptors learned dispatch keys
// on.  They are deliberately crude: the table only has to separate
// workload *families* (dense vs blocked vs sparse, small vs large),
// not individual instances, and coarse buckets mean a handful of
// races is enough to reach confidence on a repeat family.
type Features struct {
	// Tasks and Steps are the instance dimensions m and n.
	Tasks int
	// Steps is the trace length.
	Steps int
	// DensityPct is the percentage of (task, step) cells with a
	// non-empty requirement.
	DensityPct int
	// BlockPct is the percentage of interior step boundaries that cut
	// no switch column (partition.CutProfile) — high for blocked
	// instances that decompose well, zero for dense ones.
	BlockPct int
}

// Extract computes the features of one instance.  Cost is O(total
// requirement cells), negligible next to any contender.
func Extract(ins *model.MTSwitchInstance) Features {
	m, n := ins.NumTasks(), ins.Steps()
	f := Features{Tasks: m, Steps: n}
	if m == 0 || n == 0 {
		return f
	}
	filled := 0
	for _, row := range ins.Reqs {
		for _, r := range row {
			if !r.IsEmpty() {
				filled++
			}
		}
	}
	f.DensityPct = (filled*100 + m*n/2) / (m * n)
	if n > 1 {
		cut := partition.CutProfile(ins)
		zero := 0
		for s := 1; s < n; s++ {
			if cut[s] == 0 {
				zero++
			}
		}
		f.BlockPct = (zero*100 + (n-1)/2) / (n - 1)
	}
	return f
}

// Bucket quantizes the features into a table key: log2 buckets for the
// dimensions, quintiles for density and blockiness.  Everything that
// lands in one bucket is "the same family" as far as dispatch is
// concerned.
func (f Features) Bucket() string {
	return fmt.Sprintf("m%d_n%d_d%d_b%d",
		bits.Len(uint(f.Tasks)), bits.Len(uint(f.Steps)), f.DensityPct/20, f.BlockPct/20)
}

// staleCap bounds a bucket's total win count: when recording pushes
// the total past it, every count is halved (integer division).  Old
// regimes therefore wash out geometrically — after the workload
// shifts, ~staleCap races rewrite the bucket's majority no matter how
// long the old winner reigned.
const staleCap = 64

// Table is the in-process win-record table behind learned dispatch:
// feature bucket → solver → race wins.  Safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	buckets map[string]map[string]int64
}

// DefaultTable is the process-wide table the registered "portfolio"
// solver consults.  It starts empty with the process and is never
// saved: a restarted hyperd races each family again until the table
// is confident.
var DefaultTable = NewTable()

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{buckets: map[string]map[string]int64{}}
}

// Record adds one race outcome.  Only genuine races record — direct
// dispatches must not reinforce their own prediction.
func (t *Table) Record(bucket, winner string) {
	if t == nil || bucket == "" || winner == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[bucket]
	if b == nil {
		b = map[string]int64{}
		t.buckets[bucket] = b
	}
	b[winner]++
	var total int64
	for _, c := range b {
		total += c
	}
	if total > staleCap {
		for s, c := range b {
			if c /= 2; c == 0 {
				delete(b, s)
			} else {
				b[s] = c
			}
		}
	}
}

// Predict returns the bucket's leading solver, its share of the
// recorded wins, and the total sample count (0, "", 0 for an unseen
// bucket).  Ties break lexicographically so prediction is
// deterministic.
func (t *Table) Predict(bucket string) (winner string, share float64, samples int64) {
	if t == nil {
		return "", 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[bucket]
	var best, total int64
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return "", 0, 0
	}
	names := make([]string, 0, len(b))
	for s := range b {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		if b[s] > best {
			best, winner = b[s], s
		}
	}
	return winner, float64(best) / float64(total), total
}
