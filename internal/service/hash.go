package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/bitset"
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
		writeCells(h, nil, s.Reqs)
	case solve.KindMTSwitch:
		mt := inst.MT
		var cells []byte
		fmt.Fprintf(h, "mtswitch\x00%d\x00%d\x00%d\x00%d\x00",
			inst.Cost.HyperUpload, inst.Cost.ReconfUpload, mt.NumTasks(), mt.Steps())
		for j, t := range mt.Tasks {
			fmt.Fprintf(h, "task\x00%s\x00%d\x00%d\x00", t.Name, t.Local, t.V)
			cells = writeCells(h, cells, mt.Reqs[j])
		}
	default:
		return "", fmt.Errorf("service: unhashable instance kind %v", inst.Kind())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeCells writes each requirement's bit string and a NUL to w,
// rendering them from the sets' words into buf (reused across calls;
// the grown buffer is returned) and flushing it every 32 KiB.
func writeCells(w io.Writer, buf []byte, reqs []bitset.Set) []byte {
	const flushAt = 32 << 10
	if len(reqs) > 0 {
		cell := reqs[0].Universe() + 1
		if need := min(len(reqs)*cell, flushAt+cell); cap(buf) < need {
			buf = make([]byte, 0, need)
		}
	}
	buf = buf[:0]
	for _, r := range reqs {
		buf = append(r.AppendString(buf), 0)
		if len(buf) >= flushAt {
			w.Write(buf)
			buf = buf[:0]
		}
	}
	w.Write(buf)
	return buf
}

// writeOptions serializes every solve.Options field in declaration
// order, except Workers: the wire does not carry it and no solver's
// answer depends on it.  New fields must be appended here.  The format
// keys the exact cache, the canonical store (journaled in the WAL under
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
