package portfolio

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestPredictEmptyAndTies(t *testing.T) {
	table := NewTable()
	if w, s, n := table.Predict("unseen"); w != "" || s != 0 || n != 0 {
		t.Fatalf("unseen bucket predicted %q %.2f %d", w, s, n)
	}
	// Ties break lexicographically so prediction is deterministic.
	table.Record("b", "zeta")
	table.Record("b", "alpha")
	if w, s, n := table.Predict("b"); w != "alpha" || s != 0.5 || n != 2 {
		t.Fatalf("tie broke to %q %.2f %d, want alpha 0.50 2", w, s, n)
	}
	// A nil table never predicts and never panics.
	var nilTable *Table
	if w, _, _ := nilTable.Predict("b"); w != "" {
		t.Fatalf("nil table predicted %q", w)
	}
	nilTable.Record("b", "x")
}

func TestRecordStaleness(t *testing.T) {
	table := NewTable()
	for i := 0; i < staleCap; i++ {
		table.Record("b", "old")
	}
	if _, share, samples := table.Predict("b"); share != 1 || samples != staleCap {
		t.Fatalf("warm bucket: share %.2f samples %d", share, samples)
	}
	// The push past staleCap halves every count, so a regime shift
	// rewrites the majority in ~staleCap races no matter how long the
	// old winner reigned.
	table.Record("b", "new")
	if _, _, samples := table.Predict("b"); samples >= staleCap {
		t.Fatalf("staleness halving did not fire: %d samples", samples)
	}
	for i := 0; i < staleCap; i++ {
		table.Record("b", "new")
	}
	if w, _, _ := table.Predict("b"); w != "new" {
		t.Fatalf("majority did not flip after a regime shift: %q", w)
	}
}

func TestExtractFeatures(t *testing.T) {
	dense, err := workload.Dense(workload.Config{Tasks: 3, Steps: 16, Switches: 8, MeanPhase: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := Extract(dense)
	if f.Tasks != 3 || f.Steps != 16 {
		t.Fatalf("dimensions: %+v", f)
	}
	if f.DensityPct <= 0 || f.DensityPct > 100 {
		t.Fatalf("density out of range: %d", f.DensityPct)
	}

	blocked, err := workload.Blocked(workload.Config{Tasks: 3, Steps: 48, Switches: 12, MeanPhase: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bf := Extract(blocked)
	// Blocked traces decompose at zero-cut boundaries; dense ones do
	// not — the feature must separate the two families.
	if bf.BlockPct <= f.BlockPct {
		t.Fatalf("blocked trace BlockPct %d not above dense %d", bf.BlockPct, f.BlockPct)
	}

	// Same config, different seed: same bucket (that is what makes a
	// handful of races enough to learn a family).
	blocked2, err := workload.Blocked(workload.Config{Tasks: 3, Steps: 48, Switches: 12, MeanPhase: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if Extract(blocked).Bucket() != Extract(blocked2).Bucket() {
		t.Fatalf("sibling seeds bucketed apart: %s vs %s",
			Extract(blocked).Bucket(), Extract(blocked2).Bucket())
	}
}

// extractReference is Extract with BlockPct counted per column: a
// boundary before step s is cut-free when no column of any task is
// required both before s and at or after it, found with one Contains
// per (column, step).
func extractReference(ins *model.MTSwitchInstance) Features {
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
		cut := make([]bool, n)
		for j, reqs := range ins.Reqs {
			for c := 0; c < ins.Tasks[j].Local; c++ {
				first, last := -1, -1
				for i := 0; i < n; i++ {
					if reqs[i].Contains(c) {
						if first < 0 {
							first = i
						}
						last = i
					}
				}
				for s := first + 1; s <= last; s++ {
					cut[s] = true
				}
			}
		}
		zero := 0
		for s := 1; s < n; s++ {
			if !cut[s] {
				zero++
			}
		}
		f.BlockPct = (zero*100 + (n-1)/2) / (n - 1)
	}
	return f
}

// TestExtractMatchesColumnReference pins Extract to the per-column
// reference on every generator, with cut columns and one-step traces.
func TestExtractMatchesColumnReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for trial := 0; trial < 240; trial++ {
		cfg := workload.Config{
			Tasks:     1 + r.Intn(4),
			Steps:     1 + r.Intn(300),
			Switches:  1 + r.Intn(100),
			MeanPhase: 1 + r.Intn(10),
			CutWidth:  r.Intn(3),
			Seed:      1 + r.Int63n(1000),
		}
		ins, err := gens[names[trial%len(names)]](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Extract(ins), extractReference(ins); got != want {
			t.Fatalf("%s %+v: features %+v, reference %+v", names[trial%len(names)], cfg, got, want)
		}
	}
}
