package service

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/solve"
	"repro/internal/workload"
)

// blockedRequest builds an inline blocked-workload request of the
// given step count.
func blockedRequest(t *testing.T, solver string, steps int) *SolveRequest {
	t.Helper()
	mt, err := workload.Blocked(workload.Config{Tasks: 2, Steps: steps, Switches: 8, MeanPhase: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &SolveRequest{Solver: solver, Instance: WireInstanceFrom(mt)}
}

// TestBlockedExactRunsMonolithic pins that hyperd runs the solver a
// request names: a 288-step blocked exact submission (perfbench
// exact-cold's blocked shape, which the partitioned solver splits
// without a cut) runs as exact and proves its optimum, at the cost a
// direct exact-partitioned submit of the same instance reaches, and
// its routing key is the canonical key the node stores it under.  The
// partition metric families appear after the partitioned solve.
func TestBlockedExactRunsMonolithic(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	big, _, err := s.Submit(blockedRequest(t, "exact", 288))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, big)
	if big.Solver != "exact" {
		t.Fatalf("288-step blocked exact job ran as %q, want exact", big.Solver)
	}
	sol := doneResult(t, big)
	if !sol.Exact {
		t.Fatal("288-step blocked exact job: want a proven optimum")
	}
	// A router applying the node's limits sends the request to the
	// owner of the key the node stores its answer under.
	if key, err := blockedRequest(t, "exact", 288).RoutingKey(s.limits()); err != nil || key != big.canonKey {
		t.Fatalf("RoutingKey = %q (err %v), want the job's canonical key %q", key, err, big.canonKey)
	}

	direct, _, err := s.Submit(blockedRequest(t, "exact-partitioned", 288))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, direct)
	if direct.CacheHit {
		t.Fatal("exact-partitioned submit hit the exact job's cache line")
	}
	part := doneResult(t, direct)
	if part.Cost != sol.Cost {
		t.Fatalf("exact-partitioned costs %d, exact %d", part.Cost, sol.Cost)
	}
	if part.Stats.Partitions < 1 {
		t.Fatalf("exact-partitioned Stats.Partitions = %d, want ≥ 1", part.Stats.Partitions)
	}

	var buf bytes.Buffer
	s.metrics.render(&buf, s.gauges())
	for _, name := range []string{
		"hyperd_partition_parts_total",
		"hyperd_partition_cut_columns_total",
		"hyperd_partition_stitch_ns_total",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("metrics missing %s:\n%s", name, buf.String())
		}
	}
}

// TestPartitionStatsWireRoundTrip pins the wire inverse pair for the
// new stats fields — the cluster peer fill depends on it.
func TestPartitionStatsWireRoundTrip(t *testing.T) {
	in := solve.Stats{
		StatesExpanded: 7,
		Partitions:     3,
		CutColumns:     5,
		StitchBound:    11,
		StitchTime:     2 * time.Millisecond,
	}
	out := statsFromWire(wireStats(in))
	if out.Partitions != in.Partitions || out.CutColumns != in.CutColumns ||
		out.StitchBound != in.StitchBound || out.StitchTime != in.StitchTime {
		t.Fatalf("round trip lost partition stats: %+v -> %+v", in, out)
	}
}
