package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/service"
	"repro/internal/workload"
)

// family is one instance shape of a workload's mix.  Share is the
// family's number of ops per hundred: counts are fixed per run, never
// drawn, so a seed changes which instances are sent but not how many
// of each shape.
type family struct {
	Name   string
	Gen    string
	Cfg    workload.Config
	Upload string // "" (parallel) or "sequential"
	Share  int
}

// The exact-cold and portfolio-mixed mixes keep the family names of
// paperbench -bench10.
// Their "phased" family runs 2 tasks instead of 3: the 3-task phased
// shape has a heavy solve-time tail (p50 26 ms, p99 387 ms, max 532 ms
// over 200 instances at Workers=1 on the 2-vCPU reference host), and a
// handful of those instances decided p99_ms and throughput_ops of a
// whole run.
var (
	exactColdMix = []family{
		{Name: "phased-small", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8}, Share: 30},
		{Name: "phased", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 40, Switches: 12, MeanPhase: 10}, Share: 25},
		{Name: "dense", Gen: "dense", Cfg: workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10}, Share: 25},
		{Name: "sequential", Gen: "phased", Cfg: workload.Config{Tasks: 3, Steps: 40, Switches: 12, MeanPhase: 10}, Upload: "sequential", Share: 12},
		// 288 steps is above hyperd's -partition-steps 256, so hyperd
		// dispatches these to exact-partitioned.
		{Name: "blocked", Gen: "blocked", Cfg: workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8}, Share: 8},
	}
	// portfolioMix leaves out paperbench -bench10's blocked-long family.  No lane
	// proves a blocked trace optimal, so its races run the GA lane to
	// the end (155 ms for 2×64, 400+ ms for 4×96 under load); learned
	// dispatch re-raced the family now and then, and each such race
	// stalled both workers: p99_ms moved between 21 and 75 ms (2×64)
	// and between 26 and 228 ms (4×96) across five seeds.
	portfolioMix = []family{
		{Name: "phased-small", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8}, Share: 35},
		{Name: "phased", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 40, Switches: 12, MeanPhase: 10}, Share: 35},
		{Name: "dense", Gen: "dense", Cfg: workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10}, Share: 30},
	}
	// twinBase is the shape of the cache-twins base instances: hundreds
	// of steps, so the service front has real bytes to decode, hash,
	// canonicalize and re-price, but below -partition-steps.
	twinBase = family{Name: "base", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 192, Switches: 12, MeanPhase: 16}, Share: 100}
	// streamMix shapes the stream-durable session traces.  Each batch
	// re-solves a trace of about 60 steps (about 5 ms of CPU), so the
	// HTTP round trip and the WAL append are a small part of an op:
	// with 48-step traces (1 ms a batch) p50_ms spread 0.43 (IQR /
	// median) over four 30-s runs, with 100-step traces 0.29 under the
	// same fsync policy (see durableFsync).
	streamMix = []family{
		{Name: "phased", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10}},
		{Name: "dense", Gen: "dense", Cfg: workload.Config{Tasks: 2, Steps: 100, Switches: 16, MeanPhase: 10}},
	}
)

// Workload sizes.  A run's op count is opsPerSecond × --seconds, a pure
// function of the arguments, so a run always sends the same fixed list
// of operations; opsPerSecond is sized so the timed phase lasts roughly
// --seconds on a 2-vCPU host.
const (
	exactColdOpsPerSecond = 450
	twinOpsPerSecond      = 600
	streamOpsPerSecond    = 320
	// portfolioRate is the portfolio-mixed Poisson arrival rate in ops
	// per second, about a third of hyperd's capacity on the mix: at 200
	// ops/s a run with 30% of the CPU stolen saturated and p99_ms rose
	// from 29 to 272 ms.
	portfolioRate = 120

	twinBases       = 16  // cache-twins working set, well inside 1024 cache entries
	twinRepeatShare = 0.5 // literal repeats; the rest are fresh structural twins
	streamInitial   = 20  // opening rows of every stream
	streamBatch     = 3   // mean rows per appended batch
	streamAmend     = 0.15
	warmOps         = 400 // warm-up solves on exact-cold and portfolio-mixed
	warmStreamOps   = 180 // warm-up session batches on stream-durable
	minOps          = 40
)

// Salts keep the constant-seed instance pools (warm-up, cache-twins
// bases, timed) and the run seed's relabelling apart; set-up is the
// same work in every run.
const (
	fixedSeed = 0x5eed
	saltWarm  = 0x7761726d
	saltBase  = 0x62617365
	saltTimed = 0x74696d65
)

// workloadNames are the workloads a run can name.  benchWorkloads are
// the benchmark's own, the ones BENCHMARK.json lists and --workload all
// runs; cache-twins and portfolio-mixed did not repeat within the
// benchmark's bounds on the shared 2-vCPU host and are driven only as
// companions of exact-cold's traced run (trace.go) or by name.
var (
	workloadNames  = []string{"exact-cold", "cache-twins", "portfolio-mixed", "stream-durable"}
	benchWorkloads = []string{"exact-cold", "stream-durable"}
)

// opKind selects how the load generator sends an op.
type opKind int

const (
	kindSolve opKind = iota // POST /v1/solve, answered when done
	kindJob                 // POST /v1/jobs, then GET /v1/jobs/{id}/wait
	kindBatch               // POST /v1/sessions/{id}/steps
)

// op is one request with what its answer is checked against.
type op struct {
	idx    int
	kind   opKind
	family string
	body   []byte
	solver string // "" for session batches
	inst   *model.MTSwitchInstance
	cost   model.CostOptions
	// base is the cache-twins base index (-1 elsewhere); twin marks a
	// structural twin rather than a literal repeat.
	base int
	twin bool
}

// stream is one session: the opener body and its batch ops in order.
type stream struct {
	opener  []byte
	upload  string
	batches []*op
	final   *model.MTSwitchInstance
}

// plan is everything one run of a workload sends, generated up front.
type plan struct {
	name    string
	seconds int
	warm    []*op     // warm-up solves (exact-cold, portfolio-mixed)
	bases   []*op     // cache-twins set-up solves
	ops     []*op     // timed ops, in dispatch order
	streams []*stream // stream-durable timed streams
	warmSt  []*stream // stream-durable warm-up streams
	due     []time.Duration
	durable bool
}

func costOptions(upload string) model.CostOptions {
	if upload == "sequential" {
		return model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
	}
	return model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
}

func rngFor(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9e3779b1 ^ salt))
}

func opCount(perSecond, seconds int) int {
	n := perSecond * seconds
	if n < minOps {
		n = minOps
	}
	return n
}

// buildPlan generates the op list of one run.  It is a pure function
// of its arguments.
//
// The instances themselves come from constant seeds: --seed relabels
// every instance into a structural twin (tasks permuted and renamed,
// switch columns relabelled; the same optimum and the same solver
// work, a different request) and shuffles the order they are sent in.
// So two seeds send different requests that cost hyperd the same work,
// and the spread between runs is the host's, not the draw's.
func buildPlan(name string, seed int64, seconds int) (*plan, error) {
	p := &plan{name: name, seconds: seconds}
	r := rngFor(seed, saltTimed)
	seen := map[string]bool{}
	var err error
	switch name {
	case "exact-cold", "portfolio-mixed":
		mix, solver, kind, n := exactColdMix, "exact", kindSolve, opCount(exactColdOpsPerSecond, seconds)
		if name == "portfolio-mixed" {
			mix, solver, kind, n = portfolioMix, "portfolio", kindJob, opCount(portfolioRate, seconds)
		}
		// The warm-up solves other instances of the same families with
		// the same solver.  On portfolio-mixed it trains the dispatch
		// table: without it the first seconds of the timed phase were
		// full races whose GA lanes queued every job behind them, and
		// p99_ms moved between 43 and 851 ms across ten seeds.
		warm, err := pool(mix, warmOps, saltWarm, seen)
		if err != nil {
			return nil, err
		}
		for _, w := range warm {
			o, err := solveOp(w.fam.Name, solver, w.mt, w.fam.Upload, kindSolve)
			if err != nil {
				return nil, err
			}
			p.warm = append(p.warm, o)
		}
		timed, err := pool(mix, n, saltTimed, seen)
		if err != nil {
			return nil, err
		}
		for _, i := range r.Perm(len(timed)) {
			mt, err := newRelabel(r, timed[i].mt.Tasks).instance(timed[i].mt)
			if err != nil {
				return nil, err
			}
			o, err := solveOp(timed[i].fam.Name, solver, mt, timed[i].fam.Upload, kind)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, o)
		}
		if name == "portfolio-mixed" {
			p.due = arrivals(r, len(p.ops), portfolioRate)
		}
	case "cache-twins":
		err = twinPlan(p, r, seconds)
	case "stream-durable":
		p.durable = true
		var tmpl []streamTemplate
		if tmpl, err = streamTemplates(warmStreamOps, saltWarm); err != nil {
			return nil, err
		}
		if p.warmSt, _, err = streamOps(tmpl, nil); err != nil {
			return nil, err
		}
		if tmpl, err = streamTemplates(opCount(streamOpsPerSecond, seconds), saltTimed); err != nil {
			return nil, err
		}
		r.Shuffle(len(tmpl), func(a, b int) { tmpl[a], tmpl[b] = tmpl[b], tmpl[a] })
		p.streams, p.ops, err = streamOps(tmpl, r)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	for i, o := range p.ops {
		o.idx = i
	}
	return p, nil
}

// counts splits n ops over the families by share.
func counts(fams []family, n int) []int {
	total := 0
	for _, f := range fams {
		total += f.Share
	}
	out := make([]int, len(fams))
	left := n
	for i, f := range fams {
		out[i] = n * f.Share / total
		left -= out[i]
	}
	out[0] += left
	return out
}

// pooled is one generated instance of a family.
type pooled struct {
	fam family
	mt  *model.MTSwitchInstance
}

// pool generates n instances from the families, by share, from a
// constant seed.  seen holds the canonical forms already drawn in this
// run: no two instances of a run are structural twins, so exact-cold
// and portfolio-mixed never hit hyperd's canonical cache tier.
func pool(fams []family, n int, salt int64, seen map[string]bool) ([]pooled, error) {
	r := rngFor(fixedSeed, salt)
	var out []pooled
	for i, c := range counts(fams, n) {
		f := fams[i]
		for k := 0; k < c; {
			cfg := f.Cfg
			cfg.Seed = r.Int63()
			mt, err := generate(f, cfg)
			if err != nil {
				return nil, err
			}
			form, _ := mtswitch.CanonicalForm(mt)
			key := f.Upload + "\x00" + string(form)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, pooled{f, mt})
			k++
		}
	}
	return out, nil
}

func generate(f family, cfg workload.Config) (*model.MTSwitchInstance, error) {
	gen, ok := workload.Generators()[f.Gen]
	if !ok {
		return nil, fmt.Errorf("unknown generator %q", f.Gen)
	}
	return gen(cfg)
}

func solveOp(fam, solver string, mt *model.MTSwitchInstance, upload string, kind opKind) (*op, error) {
	req := &service.SolveRequest{Solver: solver, Instance: service.WireInstanceFrom(mt), Upload: upload}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &op{kind: kind, family: fam, body: body, solver: solver, inst: mt, cost: costOptions(upload), base: -1}, nil
}

// arrivals draws n Poisson arrival offsets at the given rate, rescaled
// so the last arrival lands exactly at n/rate: the offered load of a
// run is then the same for every seed.
func arrivals(r *rand.Rand, n int, rate float64) []time.Duration {
	at := make([]float64, n)
	sum := 0.0
	for i := range at {
		sum += r.ExpFloat64()
		at[i] = sum
	}
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i, a := range at {
		out[i] = time.Duration(a / sum * span * float64(time.Second))
	}
	return out
}

// twinPlan builds the cache-twins set-up (fixed base instances) and
// the timed mix of literal repeats and fresh structural twins.
func twinPlan(p *plan, r *rand.Rand, seconds int) error {
	bases, err := pool([]family{twinBase}, twinBases, saltBase, map[string]bool{})
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for b, base := range bases {
		o, err := solveOp(twinBase.Name, "exact", base.mt, "", kindSolve)
		if err != nil {
			return err
		}
		o.base = b
		p.bases = append(p.bases, o)
		seen[string(o.body)] = true
	}
	n := opCount(twinOpsPerSecond, seconds)
	repeats := int(math.Round(float64(n) * twinRepeatShare))
	kinds := make([]bool, n) // true = twin
	for i := repeats; i < n; i++ {
		kinds[i] = true
	}
	r.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	for _, twin := range kinds {
		b := p.bases[r.Intn(twinBases)]
		if !twin {
			o := *b
			p.ops = append(p.ops, &o)
			continue
		}
		for {
			mt, err := newRelabel(r, b.inst.Tasks).instance(b.inst)
			if err != nil {
				return err
			}
			o, err := solveOp("twin", "exact", mt, "", kindSolve)
			if err != nil {
				return err
			}
			if seen[string(o.body)] {
				continue
			}
			seen[string(o.body)] = true
			o.base, o.twin = b.base, true
			p.ops = append(p.ops, o)
			break
		}
	}
	return nil
}

// relabel is a structural-twin transform: new task k is old task
// perm[k] renamed to names[k], with its switch column c moved to
// cols[k][c].
type relabel struct {
	perm  []int
	names []string
	cols  [][]int
}

func newRelabel(r *rand.Rand, tasks []model.Task) relabel {
	x := relabel{perm: r.Perm(len(tasks))}
	for k, j := range x.perm {
		x.names = append(x.names, fmt.Sprintf("t%d-%x", k, r.Uint32()))
		x.cols = append(x.cols, r.Perm(tasks[j].Local))
	}
	return x
}

func (x relabel) tasks(ts []model.Task) []model.Task {
	out := make([]model.Task, len(ts))
	for k, j := range x.perm {
		out[k] = ts[j]
		out[k].Name = x.names[k]
	}
	return out
}

// rows maps step-major rows.
func (x relabel) rows(rows [][]bitset.Set) [][]bitset.Set {
	out := make([][]bitset.Set, len(rows))
	for i, row := range rows {
		out[i] = make([]bitset.Set, len(row))
		for k, j := range x.perm {
			s := bitset.New(row[j].Universe())
			for _, c := range row[j].Members() {
				s.Add(x.cols[k][c])
			}
			out[i][k] = s
		}
	}
	return out
}

func (x relabel) instance(mt *model.MTSwitchInstance) (*model.MTSwitchInstance, error) {
	return fromRows(x.tasks(mt.Tasks), x.rows(workload.StepRows(mt, 0, mt.Steps())))
}

// streamTemplate is one session's trace: the opening rows and the
// batches, each an append (at nil) or an amendment of rows at at.
type streamTemplate struct {
	fam     family
	tasks   []model.Task
	initial [][]bitset.Set
	batches []templateBatch
}

type templateBatch struct {
	rows [][]bitset.Set
	at   *int
}

// streamTemplates draws sessions from a constant seed until they hold
// at least n batches.  Every batch appends the stream's next rows and,
// with probability streamAmend, is followed by an amendment that
// overwrites earlier rows with rows copied from elsewhere in the trace.
func streamTemplates(n int, salt int64) ([]streamTemplate, error) {
	r := rngFor(fixedSeed, salt)
	var out []streamTemplate
	for k, total := 0, 0; total < n; k++ {
		f := streamMix[k%len(streamMix)]
		cfg := f.Cfg
		cfg.Seed = r.Int63()
		st, err := workload.Streaming(workload.StreamConfig{Workload: cfg, Generator: f.Gen, Initial: streamInitial, MeanBatch: streamBatch})
		if err != nil {
			return nil, err
		}
		t := streamTemplate{fam: f, tasks: st.Instance.Tasks, initial: st.Initial}
		steps := len(st.Initial)
		for _, b := range st.Batches {
			t.batches = append(t.batches, templateBatch{rows: b.Rows})
			steps += len(b.Rows)
			if r.Float64() < streamAmend {
				w := 1 + r.Intn(2)
				at := r.Intn(steps - w + 1)
				from := r.Intn(steps - w + 1)
				t.batches = append(t.batches, templateBatch{rows: workload.StepRows(st.Instance, from, from+w), at: &at})
			}
		}
		total += len(t.batches)
		out = append(out, t)
	}
	return out, nil
}

// streamOps turns templates into sessions, relabelling each stream
// with a transform drawn from r (none when r is nil), and returns the
// streams and their batch ops in order.
func streamOps(tmpl []streamTemplate, r *rand.Rand) ([]*stream, []*op, error) {
	var (
		streams []*stream
		ops     []*op
	)
	for _, t := range tmpl {
		x := relabel{perm: make([]int, len(t.tasks))}
		for k := range x.perm {
			x.perm[k] = k
			x.names = append(x.names, t.tasks[k].Name)
			x.cols = append(x.cols, identity(t.tasks[k].Local))
		}
		if r != nil {
			x = newRelabel(r, t.tasks)
		}
		tasks := x.tasks(t.tasks)
		trace := x.rows(t.initial)
		opening, err := fromRows(tasks, trace)
		if err != nil {
			return nil, nil, err
		}
		s := &stream{upload: t.fam.Upload}
		if s.opener, err = json.Marshal(service.SessionRequest{Solver: "exact", Instance: service.WireInstanceFrom(opening), Upload: t.fam.Upload}); err != nil {
			return nil, nil, err
		}
		for _, b := range t.batches {
			rows := x.rows(b.rows)
			if b.at == nil {
				trace = append(trace, rows...)
			} else {
				copy(trace[*b.at:], rows)
			}
			inst, err := fromRows(tasks, trace)
			if err != nil {
				return nil, nil, err
			}
			body, err := json.Marshal(service.SessionSteps{Reqs: wireRows(rows), At: b.at})
			if err != nil {
				return nil, nil, err
			}
			o := &op{kind: kindBatch, family: t.fam.Name, body: body, inst: inst, cost: costOptions(t.fam.Upload), base: -1}
			s.batches = append(s.batches, o)
			ops = append(ops, o)
		}
		s.final = s.batches[len(s.batches)-1].inst
		streams = append(streams, s)
	}
	return streams, ops, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fromRows builds an instance from step-major rows.
func fromRows(tasks []model.Task, rows [][]bitset.Set) (*model.MTSwitchInstance, error) {
	reqs := make([][]bitset.Set, len(tasks))
	for j := range reqs {
		reqs[j] = make([]bitset.Set, len(rows))
		for i, row := range rows {
			reqs[j][i] = row[j]
		}
	}
	return model.NewMTSwitchInstance(append([]model.Task(nil), tasks...), reqs)
}

func wireRows(rows [][]bitset.Set) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(row))
		for j, s := range row {
			out[i][j] = s.String()
		}
	}
	return out
}
