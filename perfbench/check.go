package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/traceio"
)

// answer is one checked op: its latency and the certified result.
type answer struct {
	ok      bool
	latency time.Duration
	cost    int64
	exact   bool
	job     *service.JobStatus
	sess    *service.SessionStatus
}

// outcome is a checked pass.
type outcome struct {
	answers   []answer
	attempted int
	failed    int
	problems  []string
	// statesExpanded sums the states_expanded of every timed answer.
	statesExpanded int64
}

func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	if len(oc.problems) < 10 {
		oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies every timed answer of a pass: each returned schedule
// is re-priced with model.MTSwitchInstance.Cost on the request's own
// instance, twins must cost what their base costs, every stream's
// final cost must equal an in-process exact solve of its final trace,
// and every exact-flagged portfolio answer must equal the exact
// solver's cost.
func check(ctx context.Context, p *plan, ps *pass) *outcome {
	oc := &outcome{answers: make([]answer, len(p.ops))}
	for i, o := range p.ops {
		oc.attempted++
		a, err := checkOp(o, ps.results[i])
		if err != nil {
			oc.fail("op %d (%s): %v", i, o.family, err)
			continue
		}
		oc.answers[i] = a
		if a.job != nil {
			oc.statesExpanded += a.job.Result.Stats.StatesExpanded
		}
	}
	for i := range ps.opens {
		oc.attempted += 2
		if err := statusErr(ps.opens[i], http.StatusCreated); err != nil {
			oc.fail("open of stream %d: %v", i, err)
		}
		if err := statusErr(ps.closes[i], http.StatusOK); err != nil {
			oc.fail("delete of stream %d: %v", i, err)
		}
	}
	switch {
	case p.bases != nil:
		checkTwins(p, ps, oc)
	case p.streams != nil:
		var refs []*model.MTSwitchInstance
		var opts []model.CostOptions
		for _, s := range p.streams {
			refs = append(refs, s.final)
			opts = append(opts, costOptions(s.upload))
		}
		want := exactCosts(ctx, refs, opts)
		for k, s := range p.streams {
			last := s.batches[len(s.batches)-1]
			a := oc.answers[last.idx]
			switch {
			case !a.ok:
			case want[k].err != nil:
				oc.fail("stream %d: reference solve: %v", k, want[k].err)
			case a.cost != want[k].cost:
				oc.fail("stream %d: final session cost %d, in-process exact %d", k, a.cost, want[k].cost)
			}
		}
	case p.due != nil:
		var refs []*model.MTSwitchInstance
		var opts []model.CostOptions
		var idx []int
		for i, o := range p.ops {
			if oc.answers[i].ok && oc.answers[i].exact {
				refs = append(refs, o.inst)
				opts = append(opts, o.cost)
				idx = append(idx, i)
			}
		}
		for k, w := range exactCosts(ctx, refs, opts) {
			a := oc.answers[idx[k]]
			switch {
			case w.err != nil:
				oc.fail("op %d: reference solve: %v", idx[k], w.err)
			case a.cost != w.cost:
				oc.fail("op %d: exact-flagged portfolio cost %d, exact solver %d", idx[k], a.cost, w.cost)
			}
		}
	}
	return oc
}

func statusErr(r opResult, want int) error {
	if r.err != nil {
		return r.err
	}
	if r.status != want {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return nil
}

// checkOp decodes and certifies one answer.
func checkOp(o *op, r opResult) (answer, error) {
	a := answer{latency: r.end.Sub(r.start)}
	if err := statusErr(r, http.StatusOK); err != nil {
		return a, err
	}
	var ws *service.WireSolution
	switch o.kind {
	case kindBatch:
		a.sess = &service.SessionStatus{}
		if err := json.Unmarshal(r.body, a.sess); err != nil {
			return a, err
		}
		if a.sess.Steps != o.inst.Steps() {
			return a, fmt.Errorf("session has %d steps, the client trace %d", a.sess.Steps, o.inst.Steps())
		}
		ws = a.sess.Result
	default:
		a.job = &service.JobStatus{}
		if err := json.Unmarshal(r.body, a.job); err != nil {
			return a, err
		}
		if a.job.State != string(service.JobDone) {
			return a, fmt.Errorf("job %s ended %s: %s", a.job.ID, a.job.State, a.job.Error)
		}
		if a.job.FinishedAt == nil || a.job.StartedAt == nil {
			return a, fmt.Errorf("job %s has no timestamps", a.job.ID)
		}
		if o.kind == kindJob {
			// Open loop: timed from when the op was due, so a stalled
			// server also charges the ops queued behind the stall.
			a.latency = a.job.FinishedAt.Sub(r.due)
		}
		ws = a.job.Result
	}
	if ws == nil {
		return a, fmt.Errorf("answer carries no result")
	}
	if err := certify(o.inst, o.cost, ws); err != nil {
		return a, err
	}
	a.ok, a.cost, a.exact = true, ws.Cost, ws.Exact
	return a, nil
}

// certify re-prices a returned mtswitch schedule on the instance it
// answers and compares the price with the reported cost.
func certify(inst *model.MTSwitchInstance, opt model.CostOptions, ws *service.WireSolution) error {
	if ws.Kind != "mtswitch" || len(ws.Schedule) == 0 {
		return fmt.Errorf("answer of kind %q carries no mtswitch schedule", ws.Kind)
	}
	tasks, sched, err := traceio.ReadScheduleJSON(bytes.NewReader(ws.Schedule))
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	if len(tasks) != inst.NumTasks() {
		return fmt.Errorf("schedule has %d tasks, the instance %d", len(tasks), inst.NumTasks())
	}
	for j, t := range tasks {
		if t != inst.Tasks[j] {
			return fmt.Errorf("schedule task %d is %+v, the instance's %+v", j, t, inst.Tasks[j])
		}
	}
	c, err := inst.Cost(sched, opt)
	if err != nil {
		return fmt.Errorf("re-price: %w", err)
	}
	if int64(c) != ws.Cost {
		return fmt.Errorf("reported cost %d, re-priced %d", ws.Cost, c)
	}
	return nil
}

// checkTwins compares every twin and repeat with its base's cost.  The
// base costs come from the set-up answers, certified the same way.
func checkTwins(p *plan, ps *pass, oc *outcome) {
	baseCost := make([]int64, len(p.bases))
	for b, o := range p.bases {
		a, err := checkOp(o, opResult{status: http.StatusOK, body: ps.baseBodies[b]})
		if err != nil {
			oc.fail("base %d: %v", b, err)
			baseCost[b] = -1
			continue
		}
		baseCost[b] = a.cost
	}
	for i, o := range p.ops {
		if a := oc.answers[i]; a.ok && a.cost != baseCost[o.base] {
			oc.fail("op %d: twin of base %d costs %d, the base %d", i, o.base, a.cost, baseCost[o.base])
		}
	}
}

type refCost struct {
	cost int64
	err  error
}

// replayOptions are the options hyperd clamps a default request to:
// its -max-frontier-bytes default and no client overrides.
func replayOptions() solve.Options {
	return solve.Options{MaxFrontierBytes: 1 << 30}
}

// exactCosts solves every instance in-process with the exact solver,
// two at a time.
func exactCosts(ctx context.Context, insts []*model.MTSwitchInstance, opts []model.CostOptions) []refCost {
	out := make([]refCost, len(insts))
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := replayOptions()
				o.Workers = 1
				sol, err := solve.Run(ctx, "exact", solve.NewMT(insts[i], opts[i]), o)
				if err == nil && !sol.Exact {
					err = fmt.Errorf("reference solve was not exact")
				}
				if err != nil {
					out[i].err = err
					continue
				}
				out[i].cost = int64(sol.Cost)
			}
		}()
	}
	for i := range insts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
