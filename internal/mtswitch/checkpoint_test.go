package mtswitch

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
)

// TestCheckpointRoundTripBitIdentical is the serialization property
// test: snapshot -> encode -> decode -> resume must produce a schedule
// bit-identical to the uninterrupted solve, pruning on and off.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(79))
	instances := []*model.MTSwitchInstance{phased(t)}
	for k := 0; k < 6; k++ {
		instances = append(instances, withPG(r, randomMT(r, 3, 5, 8)))
	}
	for ii, ins := range instances {
		stop := r.Intn(ins.Steps() + 1) // checkpoint after this many steps (0 = before any)
		for _, opt := range frontierOpts {
			for _, disable := range []bool{false, true} {
				o := solve.Options{Workers: 1, DisablePruning: disable}
				want, err := SolveExact(ctx, ins, opt, o)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewEngine(ctx, ins, opt, o, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Advance(ctx, stop); err != nil {
					t.Fatal(err)
				}
				data, err := eng.Checkpoint(ctx)
				if err != nil {
					t.Fatalf("instance %d stop %d: checkpoint: %v", ii, stop, err)
				}
				eng.Close()
				res, err := ResumeEngine(ctx, data, true)
				if err != nil {
					t.Fatalf("instance %d stop %d: resume: %v", ii, stop, err)
				}
				got, err := res.Solution(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
					t.Fatalf("instance %d opt %+v disable %v stop %d: resumed cost %d, uninterrupted %d (or schedules differ)",
						ii, opt, disable, stop, got.Cost, want.Cost)
				}
				res.Close()
			}
		}
	}
}

// TestCheckpointResumeThenExtend: a resumed engine stays a full
// incremental engine — extending it must still match a from-scratch
// solve of the grown trace.
func TestCheckpointResumeThenExtend(t *testing.T) {
	ctx := context.Background()
	full := phased(t)
	n := full.Steps()
	opt := frontierOpts[0]
	o := solve.Options{Workers: 2, DisablePruning: true}
	eng, err := NewEngine(ctx, prefixMT(t, full, n-2), opt, o, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(ctx, 0); err != nil {
		t.Fatal(err)
	}
	data, err := eng.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	res, err := ResumeEngine(ctx, data, true)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Extend(ctx, stepRows(full, n-2, n)); err != nil {
		t.Fatal(err)
	}
	got, err := res.Solution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveExact(ctx, full, opt, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
		t.Fatalf("resumed+extended cost %d, from-scratch %d (or schedules differ)", got.Cost, want.Cost)
	}
}

// TestCheckpointRejectsNonSteppable: zero-step and fully
// task-sequential instances have nothing to checkpoint.
func TestCheckpointRejectsNonSteppable(t *testing.T) {
	ctx := context.Background()
	ins := phased(t)
	seq := model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
	eng, err := NewEngine(ctx, ins, seq, solve.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Checkpoint(ctx); err == nil {
		t.Fatal("checkpointed a task-sequential instance")
	}
}

// TestCheckpointDecodeRejectsCorrupt walks every truncation length and
// a sweep of single-byte corruptions of a valid checkpoint: decoding
// must either fail cleanly or (for corruptions that keep the structure
// valid) succeed — it must never panic.
func TestCheckpointDecodeRejectsCorrupt(t *testing.T) {
	ctx := context.Background()
	ins := phased(t)
	eng, err := NewEngine(ctx, ins, frontierOpts[0], solve.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(ctx, 3); err != nil {
		t.Fatal(err)
	}
	data, err := eng.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()

	if _, err := decodeCheckpoint(nil); err == nil {
		t.Fatal("decoded nil")
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("decoded a checkpoint truncated to %d of %d bytes", cut, len(data))
		}
	}
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xff
		cp, err := decodeCheckpoint(corrupt) // must not panic; error is fine
		_ = cp
		_ = err
	}
	if _, err := decodeCheckpoint(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("decoded a checkpoint with trailing bytes")
	}
}

// FuzzCheckpointDecode is the issue's fuzz target: arbitrary bytes fed
// to the decoder must produce an error, never a panic.  Structurally
// valid decodes of small instances are additionally pushed through
// ResumeEngine, which must also never panic.
func FuzzCheckpointDecode(f *testing.F) {
	ctx := context.Background()
	ins := phased(f)
	for _, disable := range []bool{false, true} {
		eng, err := NewEngine(ctx, ins, frontierOpts[0], solve.Options{Workers: 1, DisablePruning: disable}, true)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := eng.Advance(ctx, 2); err != nil {
			f.Fatal(err)
		}
		data, err := eng.Checkpoint(ctx)
		if err != nil {
			f.Fatal(err)
		}
		eng.Close()
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		// Keep the resume path bounded: the decoder's dimension caps
		// still admit instances too large to prepare per fuzz exec
		// (warm start alone is quadratic in the trace length).
		n := len(cp.rows[0])
		cells := 0
		for _, task := range cp.tasks {
			cells += task.Local * n
		}
		if n > 32 || cells > 1<<10 || cp.count > 1<<8 {
			return
		}
		res, err := ResumeEngine(ctx, data, true)
		if err != nil {
			return
		}
		res.Close()
	})
}
