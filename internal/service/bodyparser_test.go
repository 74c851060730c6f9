package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// canonicalCase is one value whose json.Marshal body the one-pass
// parser must take without falling back.
type canonicalCase struct {
	name string
	v    any // *SolveRequest, *SessionRequest or *SessionSteps
}

// allOptions sets every WireOptions field to a non-zero value
// (TestCanonicalBodiesTakeOnePass checks that none is left zero).
var allOptions = WireOptions{
	MaxStates: 100, MaxCandidates: 50, Seed: -42, Pop: 12, Generations: 7,
	MutRate: 0.125, CrossRate: 0.5, TournamentK: 3, Elites: 2, NoSeeds: true,
	Crossover: "task-row", Iterations: 900, InitialTemp: 1.5e3, Cooling: 0.97,
	IntervalK: 4, MaxFrontierBytes: 1 << 20, DisablePruning: true,
	Partitions: 2, MaxCutColumns: 3,
}

// canonicalCases lists the bodies hyperd is sent: every workload
// generator under both upload modes, at cfg's size; kind switch with
// w; an app; every option set; session openers; and step batches with
// and without at.
func canonicalCases(tb testing.TB, cfg workload.Config) []canonicalCase {
	tb.Helper()
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []canonicalCase
	var last *WireInstance
	for _, name := range names {
		mt, err := gens[name](cfg)
		if err != nil {
			tb.Fatal(err)
		}
		last = WireInstanceFrom(mt)
		for _, upload := range []string{"parallel", "sequential"} {
			cases = append(cases, canonicalCase{name + "/" + upload,
				&SolveRequest{Solver: "exact", Instance: last, Upload: upload}})
		}
	}
	rows := last.Reqs[:min(3, len(last.Reqs))]
	at := 1
	return append(cases,
		canonicalCase{"switch-w", &SolveRequest{Solver: "fast", Kind: "switch", W: 9, Instance: last}},
		canonicalCase{"app", &SolveRequest{Solver: "aligned", App: "counter", Gran: "unit", TimeoutMS: 2500}},
		canonicalCase{"options", &SolveRequest{Solver: "ga", App: "toggle", Options: allOptions}},
		canonicalCase{"empty-arrays", &SolveRequest{Solver: "exact", Instance: &WireInstance{Tasks: []WireTask{}, Reqs: [][]string{}}}},
		canonicalCase{"empty-row", &SolveRequest{Solver: "exact", Instance: &WireInstance{Tasks: []WireTask{{Name: "A", Local: 1, V: 1}}, Reqs: [][]string{{}}}}},
		canonicalCase{"session-open", &SessionRequest{Solver: "exact", Instance: last}},
		canonicalCase{"session-open-options", &SessionRequest{Solver: "beam", Instance: last, Upload: "sequential", Options: allOptions}},
		canonicalCase{"batch", &SessionSteps{Reqs: rows}},
		canonicalCase{"batch-at", &SessionSteps{Reqs: rows, At: &at}},
	)
}

// newZero returns a new zero value of v's pointed-to type.
func newZero(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

// canonicalBodies marshals cases, both compact and indented.
func canonicalBodies(tb testing.TB, cases []canonicalCase) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, c := range cases {
		compact, err := json.Marshal(c.v)
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := json.MarshalIndent(c.v, " ", "\t")
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, compact, append(append([]byte("\r\n"), indented...), ' '))
	}
	return out
}

// TestCanonicalBodiesTakeOnePass: every body json.Marshal writes for
// the shapes hyperd serves, compact or indented, decodes in one pass,
// to json.Unmarshal's value.  A body that fell back would decode right
// but lose the gain, so the parser is called directly.
func TestCanonicalBodiesTakeOnePass(t *testing.T) {
	ov := reflect.ValueOf(allOptions)
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).IsZero() {
			t.Fatalf("allOptions leaves %s zero", ov.Type().Field(i).Name)
		}
	}
	cfgs := []workload.Config{
		{Tasks: 3, Steps: 24, Switches: 10, MeanPhase: 4, CutWidth: 1, Seed: 17},
		{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 15},
	}
	for _, fam := range requestPathFamilies {
		cfgs = append(cfgs, fam.cfg)
	}
	for _, cfg := range cfgs {
		cases := canonicalCases(t, cfg)
		bodies := canonicalBodies(t, cases)
		for i, body := range bodies {
			c := cases[i/2]
			got, want := newZero(c.v), newZero(c.v)
			if !decodeCanonical(string(body), got) {
				t.Fatalf("%s (%+v): one-pass parser fell back on %.200q", c.name, cfg, body)
			}
			if err := json.Unmarshal(body, want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: one-pass value %+v, json.Unmarshal %+v", c.name, got, want)
			}
		}
	}
	// Members in another order than json.Marshal writes them.
	body := `{"options":{"seed":3},"timeout_ms":5,"instance":{"reqs":[["1","01"]],"tasks":[{"v":1,"local":1,"name":"A"},{"local":2,"name":"B","v":2}]},"solver":"exact"}`
	if !decodeCanonical(body, new(SolveRequest)) {
		t.Fatalf("one-pass parser fell back on reordered members")
	}
}

// fallbackBodies are bodies outside the canonical subset, which
// decode through decodeBody: escapes (json.Marshal writes <>& in a name
// as \u003c, \u003e and \u0026), case-folded keys (ſ and the Kelvin
// sign fold to s and k), repeated keys, null, the retired workers
// option, numbers an integer or float field cannot hold, literals
// outside JSON's grammar, a raw control character in a string, invalid
// UTF-8, a byte order mark and trailing data.
var fallbackBodies = []string{
	`{"solver":"exact","instance":{"tasks":[{"name":"A","local":2,"v":2}],"reqs":[["\u0030\u0031"],["10"]]}}`,
	`{"solver":"exact","instance":{"tasks":[{"name":"a\u003cb\u003e\u0026","local":1,"v":1}],"reqs":[["1"]]}}`,
	`{"reqs":[["1","\u0031"]],"at":0}`,
	`{"SOLVER":"aligned","app":"counter"}`,
	`{"ſolver":"aligned","app":"counter"}`,
	`{"solver":"exact","app":"counter","` + "\u212a" + `ind":"switch"}`,
	`{"REQS":[["1"]]}`,
	`{"solver":"nope","solver":"aligned","app":"counter"}`,
	`{"solver":"exact","instance":{"tasks":[{"name":"A","local":1,"v":1}],"reqs":[["1"]],"tasks":[{"v":3}]}}`,
	`{"reqs":[["1"]],"reqs":[["0","1"]]}`,
	`null`,
	`{"solver":"aligned","app":"counter","instance":null}`,
	`{"solver":"aligned","app":"counter","options":null}`,
	`{"solver":"exact","instance":{"tasks":null,"reqs":[[null]]}}`,
	`{"reqs":null,"at":null}`,
	`{"solver":"aligned","app":"counter","options":{"workers":4}}`,
	`{"solver":"exact","instance":{"tasks":[{"name":"A","local":2,"v":2}],"reqs":[["10"],["01"]]},"options":{"workers":1}}`,
	`{"solver":"aligned","app":"counter","timeout_ms":1.0}`,
	`{"solver":"aligned","app":"counter","timeout_ms":1e2}`,
	`{"solver":"aligned","app":"counter","timeout_ms":-0}`,
	`{"solver":"aligned","app":"counter","timeout_ms":01}`,
	`{"reqs":[["1"]],"at":1e2}`,
	`{"reqs":[["1"]],"at":-0}`,
	`{"solver":"ga","app":"counter","options":{"mut_rate":1e400}}`,
	`{"solver":"ga","app":"counter","options":{"pop":9223372036854775808}}`,
	`{"solver":"ga","app":"counter","options":{"mut_rate":1.}}`,
	`{"solver":"ga","app":"counter","options":{"cooling":1.e5}}`,
	`{"solver":"ga","app":"counter","options":{"cooling":1e}}`,
	`{"solver":"ga","app":"counter","options":{"cooling":-}}`,
	`{"solver":"ga","app":"counter","options":{"no_heuristic_seeds":fasle}}`,
	`{"solver":"ga","app":"counter","options":{"disable_pruning":truex}}`,
	"{\"solver\":\"exact\",\"instance\":{\"tasks\":[{\"name\":\"a\tb\",\"local\":1,\"v\":1}],\"reqs\":[[\"1\"]]}}",
	"{\"reqs\":[[\"1\n\"]]}",
	"{\"solver\":\"exact\",\"instance\":{\"tasks\":[{\"name\":\"\xff\",\"local\":1,\"v\":1}],\"reqs\":[[\"1\"]]}}",
	"{\"reqs\":[[\"1\xc3\"]]}",
	"\xef\xbb\xbf{\"solver\":\"aligned\",\"app\":\"counter\"}",
	`{"solver":"aligned","app":"counter"} garbage`,
	`{"solver":"aligned","app":"counter"}]`,
	`{"solver":"aligned","app":"counter"}{"solver":"nope"}`,
	`{"reqs":[["1"]]},`,
	``,
	`{`,
}

// parentReadBody is readBody as it was before the one-pass parser:
// decodeBody streaming from the size-limited body.
func parentReadBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// TestReadBodyFallbackMatchesParent: every body outside the canonical
// subset, and two oversized ones, gets the status code and error text
// the parent's readBody gives it, as each of the three POST bodies;
// an accepted body gets json.Unmarshal's value.
func TestReadBodyFallbackMatchesParent(t *testing.T) {
	bodies := append([]string(nil), fallbackBodies...)
	// Over the limit: a syntax error before it stays a 400, a string
	// running past it is a 413.
	bodies = append(bodies,
		`{"solver":x`+strings.Repeat(" ", maxBodyBytes),
		`{"solver":"`+strings.Repeat("x", maxBodyBytes)+`"}`)
	for i, body := range bodies {
		for _, target := range []any{new(SolveRequest), new(SessionRequest), new(SessionSteps)} {
			serve := func(read func(http.ResponseWriter, *http.Request, any) bool) (*httptest.ResponseRecorder, any, bool) {
				rec := httptest.NewRecorder()
				v := newZero(target)
				ok := read(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)), v)
				return rec, v, ok
			}
			got, gotV, gotOK := serve(readBody)
			want, _, wantOK := serve(parentReadBody)
			name := fmt.Sprintf("body %d as %T (%.60q)", i, target, body)
			if gotOK != wantOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: got ok=%t %d %s, parent ok=%t %d %s", name,
					gotOK, got.Code, got.Body, wantOK, want.Code, want.Body)
			}
			if !gotOK {
				continue
			}
			ref := newZero(target)
			if err := json.Unmarshal([]byte(body), ref); err != nil {
				t.Fatalf("%s: accepted, but json.Unmarshal rejects it: %v", name, err)
			}
			if !reflect.DeepEqual(gotV, ref) {
				t.Fatalf("%s: value %+v, json.Unmarshal %+v", name, gotV, ref)
			}
		}
	}
}

// inBody reports whether s's bytes lie inside body's.
func inBody(body, s string) bool {
	if s == "" {
		return false
	}
	b := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return b <= p && p < b+uintptr(len(body))
}

// TestCanonicalStringsDoNotPinBody: after a one-pass decode and its
// resolve, no string of the request or of the resolved instance but
// the requirement cells shares memory with the body.  Finished jobs
// and cache entries keep those strings; a substring would keep the
// whole body alive with them and raise the daemon's peak RSS.
func TestCanonicalStringsDoNotPinBody(t *testing.T) {
	mt, err := workload.Phased(workload.Config{Tasks: 3, Steps: 12, Switches: 9, MeanPhase: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wi := WireInstanceFrom(mt)
	for j := range wi.Tasks {
		wi.Tasks[j].Name = fmt.Sprintf("task-%d-ü", j)
	}
	opts := WireOptions{Crossover: "two-point", Pop: 8}
	check := func(what string, body string, strs []string, cells [][]string) {
		t.Helper()
		for _, s := range strs {
			if inBody(body, s) {
				t.Errorf("%s: %q shares memory with the body", what, s)
			}
		}
		// The cells are the one exception, and the check sees them.
		for _, row := range cells {
			for _, c := range row {
				if !inBody(body, c) {
					t.Fatalf("%s: cell %q is a copy; the check above proves nothing", what, c)
				}
			}
		}
	}
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, in := range []*SolveRequest{
		{Solver: "ga", Instance: wi, Kind: "mtswitch", Upload: "sequential", Options: opts},
		{Solver: "aligned", App: "counter", Gran: "unit", Kind: "switch", Options: opts},
	} {
		body := marshal(in)
		var req SolveRequest
		if !decodeCanonical(body, &req) {
			t.Fatalf("one-pass parser fell back on %s", body)
		}
		res, err := req.resolve()
		if err != nil {
			t.Fatal(err)
		}
		strs := []string{req.Solver, req.App, req.Gran, req.Kind, req.Upload, req.Options.Crossover, res.solver}
		var cells [][]string
		if req.Instance != nil {
			for _, task := range req.Instance.Tasks {
				strs = append(strs, task.Name)
			}
			cells = req.Instance.Reqs
		}
		if res.mt != nil {
			for _, task := range res.mt.Tasks {
				strs = append(strs, task.Name)
			}
		}
		check("solve "+req.Solver, body, strs, cells)
	}

	body := marshal(&SessionRequest{Solver: "exact", Instance: wi, Upload: "parallel", Options: opts})
	var sreq SessionRequest
	if !decodeCanonical(body, &sreq) {
		t.Fatalf("one-pass parser fell back on %s", body)
	}
	smt, _, _, err := sreq.resolveSession(RouteLimits{})
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{sreq.Solver, sreq.Upload, sreq.Options.Crossover}
	for j := range sreq.Instance.Tasks {
		strs = append(strs, sreq.Instance.Tasks[j].Name, smt.Tasks[j].Name)
	}
	check("session", body, strs, sreq.Instance.Reqs)
}

// FuzzSessionBodies decodes the same bytes as a session opener and as
// a step batch, each through decodeRequest: it must accept exactly
// when json.Unmarshal does, with a reflect.DeepEqual value.
func FuzzSessionBodies(f *testing.F) {
	addBodySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstUnmarshal[SessionRequest](t, data)
		checkAgainstUnmarshal[SessionSteps](t, data)
	})
}

// addBodySeeds seeds a request fuzz target with the canonical bodies
// of small instances and every fallback form.
func addBodySeeds(f *testing.F) {
	cases := canonicalCases(f, workload.Config{Tasks: 2, Steps: 4, Switches: 4, MeanPhase: 2, CutWidth: 1, Seed: 3})
	for _, body := range canonicalBodies(f, cases) {
		f.Add(body)
	}
	for _, body := range fallbackBodies {
		f.Add([]byte(body))
	}
}

// checkAgainstUnmarshal decodes data as a T through decodeRequest and
// through json.Unmarshal, and fails unless both reject it or both
// accept it with reflect.DeepEqual values.  It returns the decoded
// value, or nil.
func checkAgainstUnmarshal[T any](t *testing.T, data []byte) *T {
	t.Helper()
	var got, want T
	err := decodeRequest(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode as %T accepted=%t, json.Unmarshal disagrees on %q (%v; %v)", got, err == nil, data, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %q as %T = %+v, json.Unmarshal = %+v", data, got, got, want)
	}
	return &got
}
