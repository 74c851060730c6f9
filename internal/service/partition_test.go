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

// TestPartitionAutoDispatch pins the dispatch rewrite
// (partition.AutoDispatch): a 288-step blocked exact submission runs
// as exact-partitioned, its routing key is the canonical key the node
// stores it under, and it shares its cache line with a directly
// requested partitioned solve; a 288-step phased one, which the
// planner cannot split without a cut, stays exact and proven, and a
// blocked trace below 256 steps stays exact.  The partition metric
// families appear after a partitioned solve.
func TestPartitionAutoDispatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	big, _, err := s.Submit(blockedRequest(t, "exact", 288))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, big)
	if big.Solver != "exact-partitioned" {
		t.Fatalf("288-step blocked exact job ran as %q, want exact-partitioned", big.Solver)
	}
	if sol := doneResult(t, big); sol.Stats.Partitions < 1 {
		t.Fatalf("Stats.Partitions = %d, want ≥ 1", sol.Stats.Partitions)
	}
	// A router applying the node's limits sends the request to the
	// owner of the key the node stores its answer under.
	if key, err := blockedRequest(t, "exact", 288).RoutingKey(s.limits()); err != nil || key != big.canonKey {
		t.Fatalf("RoutingKey = %q (err %v), want the dispatched job's canonical key %q", key, err, big.canonKey)
	}

	// A direct exact-partitioned submit of the same instance must hit
	// the cache line the dispatched job filled.
	direct, _, err := s.Submit(blockedRequest(t, "exact-partitioned", 288))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, direct)
	if !direct.CacheHit {
		t.Fatal("direct exact-partitioned submit missed the dispatched job's cache line")
	}

	mt, err := workload.Phased(workload.Config{Tasks: 2, Steps: 288, Switches: 12, MeanPhase: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	phased, _, err := s.Submit(&SolveRequest{Solver: "exact", Instance: WireInstanceFrom(mt)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, phased)
	if phased.Solver != "exact" {
		t.Fatalf("288-step phased exact job ran as %q, want exact", phased.Solver)
	}
	if sol := doneResult(t, phased); !sol.Exact {
		t.Fatal("288-step phased exact job: want a proven optimum")
	}

	small, _, err := s.Submit(blockedRequest(t, "exact", 255))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, small)
	if small.Solver != "exact" {
		t.Fatalf("255-step blocked exact job ran as %q, want exact", small.Solver)
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
