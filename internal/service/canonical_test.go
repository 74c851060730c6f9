package service

import (
	"strings"
	"testing"
)

// TestCanonicalCacheSharesStructuralTwins submits one instance, then a
// structural twin — tasks reordered and renamed, switch columns
// relabeled — and expects the twin to be answered from the canonical
// store without a solver run, with the schedule rendered in the twin's
// own task labels.
func TestCanonicalCacheSharesStructuralTwins(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	original := &SolveRequest{
		Solver: "exact",
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "alpha", Local: 3, V: 2}, {Name: "beta", Local: 2, V: 1}},
			Reqs: [][]string{
				{"100", "10"},
				{"010", "11"},
				{"011", "01"},
				{"001", "00"},
			},
		},
	}
	// Same structure: task order swapped, tasks renamed, alpha's columns
	// reversed (0↔2) and beta's columns swapped.
	twin := &SolveRequest{
		Solver: "exact",
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "south", Local: 2, V: 1}, {Name: "north", Local: 3, V: 2}},
			Reqs: [][]string{
				{"01", "001"},
				{"11", "010"},
				{"10", "110"},
				{"00", "100"},
			},
		},
	}

	first, _, err := s.Submit(original)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	firstSol := doneResult(t, first)

	second, deduped, err := s.Submit(twin)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("structural twin joined the in-flight job instead of hitting the canonical store")
	}
	if !second.CacheHit {
		t.Fatal("structural twin was not served from the canonical store")
	}
	waitDone(t, second)
	secondSol := doneResult(t, second)
	if secondSol.Cost != firstSol.Cost {
		t.Fatalf("twin cost %d, original %d", secondSol.Cost, firstSol.Cost)
	}
	if secondSol.Exact != firstSol.Exact {
		t.Fatalf("twin exact=%t, original exact=%t", secondSol.Exact, firstSol.Exact)
	}
	if got := s.metrics.canonicalHits.Load(); got != 1 {
		t.Fatalf("canonicalHits = %d, want 1", got)
	}
	if got := s.metrics.cacheHits.Load(); got != 0 {
		t.Fatalf("cacheHits = %d, want 0 (the twin is not a literal repeat)", got)
	}

	// The replayed schedule must be valid for the twin's own instance and
	// carry the twin's task labels, not the original's.
	st := second.Snapshot()
	if st.Result == nil || st.Result.Schedule == nil {
		t.Fatalf("twin snapshot has no schedule: %+v", st)
	}
	doc := string(st.Result.Schedule)
	for _, name := range []string{"south", "north"} {
		if !strings.Contains(doc, name) {
			t.Fatalf("twin schedule document missing task %q:\n%s", name, doc)
		}
	}
	if strings.Contains(doc, "alpha") || strings.Contains(doc, "beta") {
		t.Fatalf("twin schedule document leaks the original's task names:\n%s", doc)
	}

	// A literal repeat of the twin now hits the exact cache (level 1),
	// seeded by the canonical replay.
	third, _, err := s.Submit(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("literal repeat of the twin missed the exact cache")
	}
	if got := s.metrics.cacheHits.Load(); got != 1 {
		t.Fatalf("cacheHits = %d, want 1 after the literal repeat", got)
	}
	if got := s.metrics.canonicalHits.Load(); got != 1 {
		t.Fatalf("canonicalHits = %d, want still 1", got)
	}
}

// TestCanonicalCacheDistinguishesDifferentProblems makes sure the
// canonical key still separates genuinely different instances: changing
// one requirement bit must miss the canonical store.
func TestCanonicalCacheDistinguishesDifferentProblems(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	base := tinyRequest("exact")
	first, _, err := s.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	changed := tinyRequest("exact")
	changed.Instance.Reqs[1][0] = "11" // was "01"
	second, _, err := s.Submit(changed)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("different problem served from a cache")
	}
	waitDone(t, second)
	if got := s.metrics.canonicalHits.Load(); got != 0 {
		t.Fatalf("canonicalHits = %d, want 0", got)
	}
}
