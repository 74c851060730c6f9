package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/solve"
)

// requestKey canonically serializes (instance, solver, options) and
// returns the SHA-256 hex digest.  The serialization goes through the
// resolved model instance, not the request body, so every phrasing of
// the same problem — a bundled app name, its exported CSV, the inline
// JSON matrix — addresses the same cache line.  Only the kinds the
// service serves (switch, mtswitch) are hashable.
func requestKey(inst *solve.Instance, solver string, opts solve.Options) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "solver\x00%s\x00", solver)
	writeOptions(h, opts)
	switch inst.Kind() {
	case solve.KindSwitch:
		s := inst.Switch
		fmt.Fprintf(h, "switch\x00%d\x00%d\x00%d\x00", s.Universe, s.W, len(s.Reqs))
		for _, r := range s.Reqs {
			io.WriteString(h, r.String())
			h.Write([]byte{0})
		}
	case solve.KindMTSwitch:
		mt := inst.MT
		fmt.Fprintf(h, "mtswitch\x00%d\x00%d\x00%d\x00%d\x00",
			inst.Cost.HyperUpload, inst.Cost.ReconfUpload, mt.NumTasks(), mt.Steps())
		for j, t := range mt.Tasks {
			fmt.Fprintf(h, "task\x00%s\x00%d\x00%d\x00", t.Name, t.Local, t.V)
			for _, r := range mt.Reqs[j] {
				io.WriteString(h, r.String())
				h.Write([]byte{0})
			}
		}
	default:
		return "", fmt.Errorf("service: unhashable instance kind %v", inst.Kind())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeOptions serializes every solve.Options field in declaration
// order, except Workers: the wire does not carry it and no solver's
// answer depends on it.  New fields must be appended here.  The format
// keys the exact cache, the canonical store (spilled to disk under
// -data-dir) and cluster routing, so changing it costs warm hits after
// an upgrade, never correctness.
func writeOptions(w io.Writer, o solve.Options) {
	fmt.Fprintf(w, "opts\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%g\x00%g\x00%d\x00%d\x00%t\x00%d\x00%d\x00%g\x00%g\x00%d\x00%d\x00%t\x00%d\x00%d\x00",
		o.Timeout, o.MaxStates, o.MaxCandidates, o.Seed,
		o.Pop, o.Generations, o.MutRate, o.CrossRate, o.TournamentK,
		o.Elites, o.NoHeuristicSeeds, o.Crossover,
		o.Iterations, o.InitialTemp, o.Cooling, o.IntervalK,
		o.MaxFrontierBytes, o.DisablePruning,
		o.Partitions, o.MaxCutColumns)
}
