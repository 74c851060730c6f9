// Command perfbench is the repository benchmark.  It starts the real
// hyperd binary as a separate process, drives one fixed-work workload
// at it over loopback HTTP, checks every answer, and prints the
// end-to-end metrics (with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.  README.md beside
// this file explains the workloads and metrics.
//
// run.sh builds hyperd and this program from source and runs it; from
// the repository root:
//
//	bash perfbench/run.sh --workload exact-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	hyperd   string
	workdir  string
	// setups is how many times a measured run starts hyperd and warms
	// it up; setup_s is the median.
	setups int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all ("+strings.Join(benchWorkloads, ", ")+")")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	fs.IntVar(&cfg.seconds, "seconds", 30, "nominal length of the timed phase; sets the fixed op count")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.StringVar(&cfg.hyperd, "hyperd", "", "path of the hyperd binary to drive")
	fs.StringVar(&cfg.workdir, "workdir", ".", "directory for data dirs and the trace dump")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case cfg.workload == "":
		return cfg, fmt.Errorf("--workload is required")
	case cfg.hyperd == "":
		return cfg, fmt.Errorf("--hyperd is required")
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.setups = 3
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload (or all of them), prints every metric by
// name and the result JSON last, and reports whether every check held.
func run(ctx context.Context, cfg config, w io.Writer) (bool, error) {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = benchWorkloads
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, name := range names {
		p, err := buildPlan(name, cfg.seed, cfg.seconds)
		if err != nil {
			return false, err
		}
		logMeta(cfg, name)
		var r result
		if cfg.trace {
			r, err = tracedRun(ctx, cfg, p)
		} else {
			r, err = measuredRun(ctx, cfg, p)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		printMetrics(w, name, r)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[name+"."+k] = m
		}
		last = r
	}
	if len(names) == 1 {
		total = last
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return total.Correct, nil
}

func printMetrics(w io.Writer, name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: attempted %d failed %d correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %-42s %14.4f %s\n", name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// logMeta records the run's environment on standard error: CPUs,
// GOMAXPROCS, Go version, the commit hyperd was built from (when the
// build saw version control) and hyperd's flags.
func logMeta(cfg config, name string) {
	meta := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"hyperd":     "-addr 127.0.0.1:0 (defaults otherwise; stream-durable adds -data-dir <fresh> -fsync " + durableFsync + ")",
	}
	if bi, err := buildinfo.ReadFile(cfg.hyperd); err == nil {
		meta["hyperd_go"] = bi.GoVersion
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				meta["commit"] = s.Value
			}
		}
	}
	line, _ := json.Marshal(meta)
	fmt.Fprintf(os.Stderr, "perfbench: run %s\n", line)
}

// measuredRun is the untraced mode: set-up cfg.setups times, one timed
// phase, checks, and the end-to-end metrics.
func measuredRun(ctx context.Context, cfg config, p *plan) (result, error) {
	ps, err := runPass(ctx, cfg, p, cfg.setups)
	if err != nil {
		return result{}, err
	}
	oc := check(ctx, p, ps)
	for _, msg := range oc.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	return result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   endToEnd(p, ps, oc),
	}, nil
}

// endToEnd computes the user-visible metrics of a checked pass.
func endToEnd(p *plan, ps *pass, oc *outcome) map[string]metric {
	var cost []float64
	exact := 0
	for _, a := range oc.answers {
		if !a.ok {
			continue
		}
		cost = append(cost, float64(a.cost))
		if a.exact {
			exact++
		}
	}
	// Each op's span: sent (open loop: due) to completed (open loop:
	// the job's finished_at).
	spans := make([][2]time.Time, len(p.ops))
	end := ps.end
	for i, a := range oc.answers {
		r := ps.results[i]
		spans[i] = [2]time.Time{r.start, r.end}
		if a.ok && p.due != nil {
			spans[i] = [2]time.Time{r.due, *a.job.FinishedAt}
		}
		if spans[i][1].After(end) {
			end = spans[i][1]
		}
	}
	p50, p99, rate, cpu := timing(oc.answers, spans, ps.cpu)
	fmt.Fprintf(os.Stderr, "perfbench: host CPU stolen during the timed phase: %.1f%%\n", 100*stolen(ps.cpu, ps.begin, end))
	setup := make([]float64, len(ps.setup))
	for i, d := range ps.setup {
		setup[i] = d.Seconds()
	}
	return map[string]metric{
		"p50_ms":               {p50, "ms"},
		"p99_ms":               {p99, "ms"},
		"throughput_ops":       {rate, "1/s"},
		"server_cpu_ms_per_op": {cpu, "ms"},
		"peak_rss_mb":          {float64(ps.after.hwmKB) / 1024, "MiB"},
		"setup_s":              {quantile(setup, 0.5), "s"},
		"mean_cost":            {mean(cost), "cost"},
		"exact_ratio":          {ratio(float64(exact), float64(len(p.ops))), "ratio"},
	}
}

// segments is how many consecutive slices of the op list the timing
// metrics are computed on; each timing metric is the median over the
// slices.
const segments = 5

// timing cuts the op list, in dispatch order, into segments slices of
// equal op count and computes on each the p50 and p99 latency of its
// ops, its ops per second from its first send (open loop: first due
// time) to its last answer, and hyperd's CPU milliseconds per op over
// that interval; it returns the median of each over the slices.  The
// median keeps a burst of host contention that covers less than half
// the timed phase out of the figures, where a p99 taken over the whole
// phase would be the burst's.
func timing(answers []answer, spans [][2]time.Time, cpu []cpuSample) (p50, p99, rate, cpuPerOp float64) {
	var p50s, p99s, rates, perOp []float64
	n := len(answers)
	for k := 0; k < segments; k++ {
		lo, hi := k*n/segments, (k+1)*n/segments
		var lat []float64
		var a, b time.Time
		for i := lo; i < hi; i++ {
			s := spans[i]
			if s[0].IsZero() || s[1].IsZero() {
				continue
			}
			if a.IsZero() || s[0].Before(a) {
				a = s[0]
			}
			if s[1].After(b) {
				b = s[1]
			}
			if answers[i].ok {
				lat = append(lat, ms(answers[i].latency))
			}
		}
		if len(lat) == 0 || !b.After(a) {
			continue
		}
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		rates = append(rates, float64(hi-lo)/b.Sub(a).Seconds())
		perOp = append(perOp, (interp(cpu, b, hyperdTicks)-interp(cpu, a, hyperdTicks))*1000/clockTicks/float64(hi-lo))
	}
	return quantile(p50s, 0.5), quantile(p99s, 0.5), quantile(rates, 0.5), quantile(perOp, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
