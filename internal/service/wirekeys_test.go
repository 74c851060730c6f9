package service

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateWireKeys = flag.Bool("update-wire-keys", false, "rewrite testdata/wire_keys.golden")

const wireKeysGolden = "testdata/wire_keys.golden"

// keyCase is one request whose cache and routing keys the golden pins.
type keyCase struct {
	name string
	req  *SolveRequest
}

// randomWire draws an inline instance with the given task universes
// and step count from a fixed seed, cell by cell as bit strings.
func randomWire(seed int64, names []string, locals []int, steps int) *WireInstance {
	r := rand.New(rand.NewSource(seed))
	wi := &WireInstance{}
	for j, l := range locals {
		wi.Tasks = append(wi.Tasks, WireTask{Name: names[j], Local: l, V: int64(l/2 + 1)})
	}
	for i := 0; i < steps; i++ {
		row := make([]string, len(locals))
		for j, l := range locals {
			b := make([]byte, l)
			for k := range b {
				b[k] = '0'
				if r.Intn(5) < 2 {
					b[k] = '1'
				}
			}
			row[j] = string(b)
		}
		wi.Reqs = append(wi.Reqs, row)
	}
	return wi
}

// wireKeyCases lists the pinned requests: every workload generator,
// task names that need JSON escaping, universes on both sides of the
// 64-bit word boundary, one-step traces, both upload modes, kind
// switch, a bundled app and non-default options.
func wireKeyCases(t *testing.T) []keyCase {
	t.Helper()
	var cases []keyCase
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mt, err := gens[name](workload.Config{Tasks: 3, Steps: 24, Switches: 10, MeanPhase: 4, CutWidth: 1, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, keyCase{"gen-" + name, &SolveRequest{Solver: "exact", Instance: WireInstanceFrom(mt)}})
	}
	escaped := []string{`a<b>&"c\d`, "line\u2028sep\u2029x", "tab\tnl\n\x01", "ünï"}
	cases = append(cases, keyCase{"escaped-names", &SolveRequest{Solver: "exact",
		Instance: randomWire(3, escaped, []int{5, 3, 8, 2}, 6)}})
	for _, l := range []int{1, 7, 63, 64, 65, 130} {
		cases = append(cases, keyCase{fmt.Sprintf("universe-%d", l), &SolveRequest{Solver: "exact",
			Instance: randomWire(int64(100+l), []string{"A", "B"}, []int{l, l/2 + 1}, 9)}})
	}
	cases = append(cases,
		keyCase{"one-step", &SolveRequest{Solver: "exact", Instance: randomWire(5, []string{"A", "B"}, []int{65, 4}, 1)}},
		keyCase{"one-step-one-task", &SolveRequest{Solver: "aligned", Instance: randomWire(6, []string{"solo"}, []int{7}, 1)}},
		keyCase{"sequential", &SolveRequest{Solver: "exact", Upload: "sequential",
			Instance: randomWire(7, []string{"A", "B", "C"}, []int{12, 12, 64}, 20)}},
		keyCase{"parallel-explicit", &SolveRequest{Solver: "exact", Upload: "parallel",
			Instance: randomWire(7, []string{"A", "B", "C"}, []int{12, 12, 64}, 20)}},
		keyCase{"switch", &SolveRequest{Solver: "exact", Kind: "switch",
			Instance: randomWire(8, []string{"A", "B"}, []int{40, 30}, 15)}},
		keyCase{"switch-w", &SolveRequest{Solver: "fast", Kind: "switch", W: 9,
			Instance: randomWire(9, []string{"A"}, []int{130}, 4)}},
		keyCase{"app-counter", &SolveRequest{Solver: "aligned", App: "counter"}},
		keyCase{"app-counter-switch", &SolveRequest{Solver: "exact", App: "counter", Kind: "switch"}},
		keyCase{"options", &SolveRequest{Solver: "ga", TimeoutMS: 2500,
			Instance: randomWire(10, []string{"A", "B"}, []int{9, 70}, 11),
			Options: WireOptions{Seed: 42, Pop: 12, Generations: 7, MutRate: 0.125, CrossRate: 0.5,
				Crossover: "task-row", MaxFrontierBytes: 1 << 20, DisablePruning: true, Partitions: 2, MaxCutColumns: 3}}},
	)
	return cases
}

// wireKeyLines renders one golden line per case: the exact request
// key, the canonical store key with its task permutation, and both
// cluster routing keys ("-" where a case has none).
func wireKeyLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range wireKeyCases(t) {
		res := mustResolve(t, c.req)
		reqKey := key(t, res)
		canon, perm := "-", "-"
		if res.mt != nil {
			k, p := canonicalMTKey(res.mt, res.inst.Cost, res.solver, res.opts)
			canon, perm = k, fmt.Sprint(p)
		}
		route, err := c.req.RoutingKey(RouteLimits{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sessRoute := "-"
		if c.req.Instance != nil && c.req.Kind == "" {
			sr := &SessionRequest{Solver: c.req.Solver, Instance: c.req.Instance, Upload: c.req.Upload, Options: c.req.Options}
			if sessRoute, err = sr.RoutingKey(RouteLimits{}); err != nil {
				t.Fatalf("%s: session: %v", c.name, err)
			}
		}
		lines = append(lines, fmt.Sprintf("%s request=%s canonical=%s perm=%s route=%s session_route=%s",
			c.name, reqKey, canon, strings.ReplaceAll(perm, " ", ","), route, sessRoute))
	}
	return lines
}

// TestWireKeysGolden pins the bytes every cache and routing key
// hashes.  The keys address the WAL's jobdone records and the
// canonical entries they and its snapshot carry under -data-dir, and
// cluster routing, so a change to how they are computed must leave
// every digest as it is.
// Regenerate with -update-wire-keys only for a declared key change.
func TestWireKeysGolden(t *testing.T) {
	got := strings.Join(wireKeyLines(t), "\n") + "\n"
	if *updateWireKeys {
		if err := os.WriteFile(wireKeysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireKeysGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-wire-keys)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
