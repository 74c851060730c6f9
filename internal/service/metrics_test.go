package service

import (
	"bufio"
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/solve"
)

const metricsGolden = "testdata/metrics_series.golden"

// maskedMetric reports whether a series' value depends on timing
// rather than on the scenario: latencies, stitch time, WAL flush
// batching and sizes, and the portfolio lanes the winner cancelled
// part-way.  Its key is still compared; its value is not.
func maskedMetric(series string) bool {
	for _, prefix := range []string{
		"hyperd_solve_seconds_bucket",
		"hyperd_solve_seconds_sum",
		"hyperd_partition_stitch_ns_total",
		"hyperd_portfolio_incumbent_tightenings_total",
		"hyperd_wal_fsyncs_total",
		"hyperd_wal_bytes",
		"hyperd_wal_flush_seconds",
	} {
		if strings.HasPrefix(series, prefix) {
			return true
		}
	}
	return strings.HasPrefix(series, "hyperd_solver_") && strings.Contains(series, `solver="portfolio"`)
}

// TestMetricsSeriesGolden renders /metrics of a durable server after a
// scripted scenario that touches every metric family, and compares the
// sorted series (with their # TYPE lines) and every value the scenario
// fixes against testdata/metrics_series.golden.  A change that adds,
// renames or drops a series edits that file by hand from the lines
// this test reports.
func TestMetricsSeriesGolden(t *testing.T) {
	// The portfolio solve below must race.
	useFreshWinTable(t)

	cfg := durableConfig(t.TempDir())
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	aligned := &SolveRequest{Solver: "aligned", App: "counter"}
	submitWait(t, s, aligned)
	if job := submitWait(t, s, aligned); !job.CacheHit {
		t.Fatal("literal repeat missed the exact cache")
	}
	submitWait(t, s, durableOriginal())
	if job := submitWait(t, s, durableTwin()); !job.CacheHit {
		t.Fatal("structural twin missed the canonical store")
	}
	if job := submitWait(t, s, blockedRequest(t, "exact-partitioned", 288)); job.Solver != "exact-partitioned" {
		t.Fatalf("288-step exact-partitioned solve ran as %q", job.Solver)
	}
	submitWait(t, s, &SolveRequest{Solver: "portfolio", Instance: bigWire()})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		panic("metrics scenario")
	})
	submitWait(t, s, tinyRequest("svc-test"))

	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[6:8]}); err != nil {
		t.Fatal(err)
	}
	at := 2
	if _, err := sess.Steps(ctx, &SessionSteps{At: &at, Reqs: wi.Reqs[0:1]}); err != nil {
		t.Fatal(err)
	}

	_, raw := getBody(t, ts.URL+"/metrics")
	var got []string
	family, series := "", 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(name, " ")
			got = append(got, line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		key, value := line[:sp], line[sp+1:]
		name, _, _ := strings.Cut(key, "{")
		switch strings.TrimPrefix(name, family) {
		case "", "_bucket", "_sum", "_count":
		default:
			t.Fatalf("series %q is not under its # TYPE line (last family %q)", key, family)
		}
		if maskedMetric(key) {
			value = "*"
		}
		got = append(got, key+" "+value)
		series++
	}
	sort.Strings(got)

	data, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
	}
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
		if !inGot[l] {
			t.Errorf("missing from /metrics: %s", l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			t.Errorf("not in %s: %s", metricsGolden, l)
		}
	}
	if t.Failed() {
		t.Fatalf("/metrics rendered %d series that differ from %s (lines above)", series, metricsGolden)
	}
}
