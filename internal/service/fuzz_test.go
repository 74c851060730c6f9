package service

import (
	"encoding/json"
	"testing"
)

// decodeSolveRequest parses one solve request body through
// decodeRequest, the decode readBody runs.
func decodeSolveRequest(body []byte) (*SolveRequest, error) {
	var req SolveRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// FuzzSolveRequest drives the /v1/solve JSON decode-and-resolve path
// with arbitrary bytes: whatever arrives, the server must answer with
// a value or an error — never a panic, and never an instance that
// slips past the dimension bounds.  The decode must accept exactly
// when json.Unmarshal does, with a reflect.DeepEqual value, whether
// the body took the one-pass parser or decodeBody.
func FuzzSolveRequest(f *testing.F) {
	// Seeds from the service test fixtures: the canonical request
	// shapes plus near-miss corruptions of each, and every body form
	// outside the one-pass parser's subset.
	seed := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(&SolveRequest{Solver: "aligned", App: "counter"})
	seed(&SolveRequest{Solver: "exact", App: "toggle", Gran: "unit", TimeoutMS: 50})
	seed(&SolveRequest{
		Solver: "aligned",
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "A", Local: 2, V: 2}, {Name: "B", Local: 1, V: 1}},
			Reqs:  [][]string{{"10", "1"}, {"01", "0"}, {"11", "1"}},
		},
	})
	seed(&SolveRequest{Solver: "ga", App: "counter", Options: WireOptions{Pop: 10, Generations: 5, Seed: 1}})
	seed(&SolveRequest{Solver: "exact", App: "counter", Kind: "switch", W: 3})
	seed(&SolveRequest{Solver: "exact", App: "counter", Options: WireOptions{MaxFrontierBytes: 256}})
	f.Add([]byte(`{"solver":"exact","instance":{"tasks":[{"name":"A","local":-1}],"reqs":[["1"]]}}`))
	f.Add([]byte(`{"solver":"exact","instance":{"tasks":[],"reqs":[[]]}}`))
	f.Add([]byte("{\"solver\":\"aligned\",\"app\":\"counter\"} \n\t"))
	addBodySeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		req := checkAgainstUnmarshal[SolveRequest](t, data)
		if req == nil {
			return
		}
		res, err := req.resolve()
		if err != nil {
			return
		}
		// Anything that resolves must be hashable (the submit path
		// depends on it) and inside the dimension bounds.
		if _, err := requestKey(res.inst, res.solver, res.opts); err != nil {
			t.Fatalf("resolved request not hashable: %v", err)
		}
		if res.mt != nil {
			if res.mt.NumTasks() > maxWireTasks || res.mt.Steps() > maxWireSteps {
				t.Fatalf("resolved instance exceeds dimension bounds: m=%d n=%d",
					res.mt.NumTasks(), res.mt.Steps())
			}
		}
	})
}

// FuzzPeerFill drives the peer-fill wire decoder (the body of a
// GET /v1/cache/{key} hit) with arbitrary bytes: a value or an error,
// never a panic — and every accepted entry must stay inside the
// service dimension bounds and survive a re-encode round trip.
func FuzzPeerFill(f *testing.F) {
	seed := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	key := "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	seed(&PeerEntry{Key: key, Cost: 12, Exact: true, Mask: []string{"0101", "1100"}})
	seed(&PeerEntry{Key: key, Cost: 0, Mask: []string{"1"}})
	seed(&PeerEntry{Key: key, Cost: 3, Mask: []string{"000", "111", "010"},
		Stats: WireStats{StatesExpanded: 4, DedupHits: 9, WallMS: 2}})
	f.Add([]byte(`{"key":"` + key + `","cost":12,"exact":true,"mask":["0101","1100"],"dispatch_hint":{"bucket":"m2_n6_d1_b0","winner":"exact"}}`))
	f.Add([]byte(`{"key":"` + key + `","cost":-5,"mask":["1"]}`))
	f.Add([]byte(`{"key":"UPPER","cost":1,"mask":["1"]}`))
	f.Add([]byte(`{"key":"` + key + `","cost":1,"mask":["10","1"]}`))
	f.Add([]byte(`{"key":"` + key + `","cost":1,"mask":["1x"]}`))
	f.Add([]byte(`{"key":"` + key + `","cost":1,"mask":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		pe, err := DecodePeerEntry(data)
		if err != nil {
			return
		}
		if len(pe.Mask) == 0 || len(pe.Mask) > maxWireTasks {
			t.Fatalf("accepted mask with %d rows", len(pe.Mask))
		}
		width := len(pe.Mask[0])
		if width > maxWireSteps {
			t.Fatalf("accepted mask with %d steps", width)
		}
		for _, row := range pe.Mask {
			if len(row) != width {
				t.Fatalf("accepted ragged mask: %v", pe.Mask)
			}
		}
		// The accepted entry converts to a store entry and re-encodes to
		// an equivalent wire form without panicking.
		entry := pe.entry()
		again := peerEntryOf(pe.Key, entry)
		if again.Cost != pe.Cost || again.Exact != pe.Exact || len(again.Mask) != len(pe.Mask) {
			t.Fatalf("round trip drifted: %+v vs %+v", again, pe)
		}
		for i := range pe.Mask {
			if again.Mask[i] != pe.Mask[i] {
				t.Fatalf("mask row %d drifted: %q vs %q", i, again.Mask[i], pe.Mask[i])
			}
		}
	})
}
