package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// requests flattens every body a plan sends, in order.
func requests(p *plan) [][]byte {
	var out [][]byte
	for _, group := range [][]*op{p.warm, p.bases, p.ops} {
		for _, o := range group {
			out = append(out, o.body)
		}
	}
	for _, group := range [][]*stream{p.warmSt, p.streams} {
		for _, s := range group {
			out = append(out, s.opener)
			for _, b := range s.batches {
				out = append(out, b.body)
			}
		}
	}
	return out
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildPlan(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := requests(a), requests(b)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d requests for one seed", name, len(ra), len(rb))
		}
		for i := range ra {
			if !bytes.Equal(ra[i], rb[i]) {
				t.Fatalf("%s: request %d differs between two plans of one seed", name, i)
			}
		}
		for i := range a.due {
			if a.due[i] != b.due[i] {
				t.Fatalf("%s: arrival %d differs between two plans of one seed", name, i)
			}
		}
		c, err := buildPlan(name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(bytes.Join(requests(a), nil), bytes.Join(requests(c), nil)) {
			t.Fatalf("%s: seeds 7 and 8 send the same requests", name)
		}
	}
}

// TestRunsAreDeterministic drives a freshly built hyperd twice per
// workload at reduced size and compares what must not depend on
// timing.
func TestRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives hyperd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hyperd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/hyperd").CombinedOutput(); err != nil {
		t.Fatalf("build hyperd: %v\n%s", err, out)
	}
	cfg := config{seed: 3, seconds: 1, hyperd: bin, workdir: dir, setups: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, name := range []string{"exact-cold", "cache-twins", "stream-durable"} {
		p, err := buildPlan(name, cfg.seed, cfg.seconds)
		if err != nil {
			t.Fatal(err)
		}
		var (
			metrics  []map[string]metric
			expanded []int64
			tiers    [][2]float64
		)
		for k := 0; k < 2; k++ {
			ps, err := runPass(ctx, cfg, p, cfg.setups)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			oc := check(ctx, p, ps)
			if oc.failed != 0 {
				t.Fatalf("%s: %d failed ops: %v", name, oc.failed, oc.problems)
			}
			metrics = append(metrics, endToEnd(p, ps, oc))
			expanded = append(expanded, oc.statesExpanded)
			tiers = append(tiers, [2]float64{
				delta(ps.before, ps.after, "hyperd_cache_hits_total"),
				delta(ps.before, ps.after, "hyperd_cache_canonical_hits_total"),
			})
		}
		for _, m := range []string{"mean_cost", "exact_ratio"} {
			if metrics[0][m] != metrics[1][m] {
				t.Errorf("%s: %s %v then %v for one seed", name, m, metrics[0][m].Value, metrics[1][m].Value)
			}
		}
		if name == "exact-cold" && expanded[0] != expanded[1] {
			t.Errorf("exact-cold: states_expanded %d then %d for one seed", expanded[0], expanded[1])
		}
		if name == "cache-twins" {
			if tiers[0] != tiers[1] {
				t.Errorf("cache-twins: cache tier hits %v then %v for one seed", tiers[0], tiers[1])
			}
			if tiers[0][0] == 0 || tiers[0][1] == 0 {
				t.Errorf("cache-twins: a cache tier saw no hits: %v", tiers[0])
			}
		}
	}
}
