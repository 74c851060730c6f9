package mtswitch

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// updateDigests rewrites the golden frontier digests.  Only a change
// that is meant to alter the DP's frontiers may regenerate them:
//
//	go test ./internal/mtswitch -run TestFrontierDigestsGolden -update-digests
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/frontier_digests.golden")

const digestsFile = "testdata/frontier_digests.golden"

// digestInstances are the fixed-seed instances behind the golden
// frontier digests: one small instance per workload generator, the
// served exact-cold dense and stream 2×100 phased shapes, random
// instances, and a 65-task instance whose hyperreconfiguration bits
// span two words.
func digestInstances(t testing.TB) []struct {
	name string
	ins  *model.MTSwitchInstance
} {
	t.Helper()
	type named = struct {
		name string
		ins  *model.MTSwitchInstance
	}
	var out []named
	gens := workload.Generators()
	for _, g := range []string{"phased", "dense", "bursty", "markov", "uniform", "blocked"} {
		ins, err := gens[g](workload.Config{Tasks: 3, Steps: 16, Switches: 8, MeanPhase: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, named{g, ins})
	}
	dense, err := workload.Dense(workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, named{"dense-3x40", dense})
	phased2, err := workload.Phased(workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, named{"phased-2x100", phased2})
	r := rand.New(rand.NewSource(131))
	for k := 0; k < 12; k++ {
		out = append(out, named{fmt.Sprintf("random%d", k), withPG(r, randomMT(r, 5, 6, 10))})
	}
	out = append(out, named{"wide65", wideInstance(t)})
	return out
}

// wideInstance has 65 tasks, so a state's hyper bits take two words.
// Tasks 0, 1, 63 and 64 vary; the rest hold one requirement throughout
// (a single candidate, never worth re-installing), which keeps the
// joint frontier small.
func wideInstance(t testing.TB) *model.MTSwitchInstance {
	t.Helper()
	const m, n = 65, 7
	r := rand.New(rand.NewSource(65))
	tasks := make([]model.Task, m)
	rows := make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		tasks[j] = model.Task{Name: fmt.Sprintf("t%02d", j), Local: 3, V: model.Cost(1 + j%3)}
		rows[j] = make([]bitset.Set, n)
		varies := j == 0 || j == 1 || j == 63 || j == 64
		for i := 0; i < n; i++ {
			s := bitset.New(3)
			if varies {
				for b := 0; b < 3; b++ {
					if r.Intn(2) == 0 {
						s.Add(b)
					}
				}
			} else {
				s.Add(j % 3)
			}
			rows[j][i] = s
		}
	}
	return mustMT(t, tasks, rows)
}

// digestOptions are the search options the digests cover: pruning on
// and off, each exact, beam-truncated (MaxStates 3 and 50),
// candidate-trimmed (MaxCandidates 2) and under frontier byte budgets
// of 2, 8 and 32 KiB.
var digestOptions = []struct {
	name string
	o    solve.Options
}{
	{"exact", solve.Options{DisablePruning: true}},
	{"beam3", solve.Options{DisablePruning: true, MaxStates: 3}},
	{"beam50", solve.Options{DisablePruning: true, MaxStates: 50}},
	{"cand2", solve.Options{DisablePruning: true, MaxCandidates: 2}},
	{"budget2k", solve.Options{DisablePruning: true, MaxFrontierBytes: 2 << 10}},
	{"budget8k", solve.Options{DisablePruning: true, MaxFrontierBytes: 8 << 10}},
	{"budget32k", solve.Options{DisablePruning: true, MaxFrontierBytes: 32 << 10}},
	{"pruned", solve.Options{}},
	{"pruned-beam3", solve.Options{MaxStates: 3}},
	{"pruned-beam50", solve.Options{MaxStates: 50}},
	{"pruned-cand2", solve.Options{MaxCandidates: 2}},
	{"pruned-budget2k", solve.Options{MaxFrontierBytes: 2 << 10}},
	{"pruned-budget8k", solve.Options{MaxFrontierBytes: 8 << 10}},
	{"pruned-budget32k", solve.Options{MaxFrontierBytes: 32 << 10}},
}

// frontierDigest steps a one-shot engine through the whole trace and
// summarizes what each step left behind: the frontier's count, packed
// vectors and costs, and the generation's back-pointers and hyper
// bits, chained into one SHA-256.  The line also carries the counters
// that depend only on the frontiers: the peak frontier, the distinct
// successors (StatesExpanded − DedupHits) and the dominance hits.
//
// A run the byte budget degrades drops states in the order the
// expansion generates them, which is not part of the DP's contract (a
// pruned run may even empty its frontier at another step), so its
// golden line pins only the outcome: that the run was degraded.
//
// The digests pin the frontier DP, so the engine steps it even where
// the aligned path would answer (tasks sharing one v under
// task-parallel hyper uploads); TestAlignedExact* cover that path.
func frontierDigest(t testing.TB, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) string {
	t.Helper()
	ctx := context.Background()
	en, err := NewEngine(ctx, ins, opt, o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	en.aligned = false
	h := sha256.New()
	var buf []byte
	steps := 0
	for {
		done, err := en.Advance(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e := en.e; e != nil && len(e.gens) > steps {
			steps = len(e.gens)
			sw := e.lay.setWords
			gen := e.gens[steps-1]
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(e.count))
			for _, w := range e.slab[:e.count*sw] {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			for _, c := range e.costs[:e.count] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
			for _, p := range gen.prev {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			}
			// Only the m task bits of a hyper word carry meaning.
			hw := e.lay.hyperWords
			for i, w := range gen.hyper {
				if bitsIn := e.lay.m - (i%hw)*64; bitsIn < 64 {
					w &= 1<<uint(bitsIn) - 1
				}
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			h.Write(buf)
		}
		if done {
			break
		}
	}
	sol, err := en.Solution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.Degraded {
		return "degraded"
	}
	return fmt.Sprintf("steps=%d peak=%d distinct=%d dom=%d cost=%d trunc=%t digest=%s",
		steps, st.PeakFrontier, st.StatesExpanded-st.DedupHits, st.DominanceHits,
		sol.Cost, st.Truncated, hex.EncodeToString(h.Sum(nil))[:16])
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digests)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			out[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFrontierDigestsGolden pins the DP's frontiers byte for byte: every
// step's frontier and generation, across all three frontier upload
// modes, pruning on and off, beam and candidate caps, must match the
// committed digests.  Unlike the comparison with SolveExactReference,
// this also covers the pruned path.
func TestFrontierDigestsGolden(t *testing.T) {
	var want map[string]string
	if !*updateDigests {
		want = readDigests(t)
	}
	var lines []string
	for _, in := range digestInstances(t) {
		for oi, opt := range frontierOpts {
			for _, do := range digestOptions {
				name := fmt.Sprintf("%s/opt%d/%s", in.name, oi, do.name)
				got := frontierDigest(t, in.ins, opt, do.o)
				lines = append(lines, name+" "+got)
				if !*updateDigests && got != want[name] {
					t.Errorf("%s:\n got  %s\n want %s", name, got, want[name])
				}
			}
		}
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(lines) != len(want) {
		t.Errorf("checked %d cases, golden file has %d", len(lines), len(want))
	}
}
