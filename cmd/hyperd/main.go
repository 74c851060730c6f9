// Command hyperd is the concurrent solve daemon: it serves the solver
// registry over HTTP/JSON with a bounded worker pool, a bounded job
// queue and a content-addressed result cache (see internal/service for
// the wire format).
//
// Usage:
//
//	hyperd [-addr :8077] [-workers N] [-queue N] [-cache N] [-max-timeout 60s]
//	       [-max-frontier-bytes N] [-breaker-threshold N] [-breaker-cooldown 10s]
//	       [-max-sessions N] [-session-bytes N] [-partition-steps N]
//	       [-data-dir DIR] [-fsync always|interval|never] [-wal-segment-bytes N]
//	hyperd bench [-solver aligned] [-gen phased] [-tasks 4] [-steps 64]
//	             [-switches 16] [-conc 32] [-duration 2s]
//	hyperd bench -cluster [-nodes 3] [-twins 24] [-json out.json]
//	             [-router URL -peers URL,URL,...]
//	hyperd route -peers URL,URL,... [-addr 127.0.0.1:8078] [-vnodes 64]
//	             [-sticky N] [-max-timeout 60s] [-max-frontier-bytes N]
//
// The default mode serves until SIGINT/SIGTERM, then shuts down
// gracefully: new submits are rejected, queued jobs drain as canceled,
// and in-flight solves stop at their next cancellation checkpoint.
// With -data-dir the daemon journals job submissions, completions and
// session step batches to a write-ahead log under that directory and
// spills the canonical cache and evicted session checkpoints to a
// content-addressed disk store; after a crash (or kill -9) a restart
// on the same directory replays the journal, warm-loads the cache,
// revives streaming sessions and re-enqueues incomplete jobs. The
// graceful drain compacts and flushes the WAL before exit.
// With -peers and -self it joins a cluster: canonical-cache misses are
// filled from the ring siblings over GET /v1/cache/{key} before the
// local pool solves, and a fill may park on a sibling's in-flight twin
// solve (cross-node singleflight).
//
// route is the cluster front door: it hashes solve submissions onto
// the nodes by canonical form (twins land on one owner), fails over
// along the ring past unhealthy members, and pins job polls and
// streaming sessions to the node holding their state.
//
// bench starts an in-process daemon on a loopback port and drives it
// over real HTTP with synthetic internal/workload instances: first an
// uncached phase (every request a distinct instance, measuring solver
// throughput), then a cached phase (one hot instance, measuring
// serving throughput).  -cpuprofile and -memprofile profile the daemon
// under that load.
//
// bench -cluster spawns (or attaches to) an N-node cluster behind a
// router, measures its cached throughput against a single node, and
// hard-fails if a structural twin sent to a non-owner node is not
// answered through peer cache fill with the single node's schedule.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/portfolio"
	"repro/internal/profutil"
	"repro/internal/service"
	"repro/internal/workload"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "bench" {
		if err := runBench(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hyperd bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(args) > 0 && args[0] == "route" {
		if err := runRoute(args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "hyperd route:", err)
			os.Exit(1)
		}
		return
	}
	if err := runServe(args); err != nil {
		fmt.Fprintln(os.Stderr, "hyperd:", err)
		os.Exit(1)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("hyperd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8077", "listen address")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 256, "job queue depth")
		cache      = fs.Int("cache", 1024, "result cache entries (negative disables)")
		maxTimeout = fs.Duration("max-timeout", time.Minute, "per-job solve deadline cap (0 = none)")
		maxBytes   = fs.Int64("max-frontier-bytes", 1<<30, "per-job solver memory budget in bytes; exhaustion degrades exact solves to beam search (0 = none)")
		brkThresh  = fs.Int("breaker-threshold", 5, "consecutive solver panics/timeouts that trip its circuit breaker (negative disables)")
		brkCool    = fs.Duration("breaker-cooldown", 10*time.Second, "how long a tripped breaker fails fast before probing")
		maxSess    = fs.Int("max-sessions", 64, "concurrent streaming sessions")
		sessBytes  = fs.Int64("session-bytes", 64<<20, "total session engine memory before LRU engines are checkpointed out (negative disables)")
		partSteps  = fs.Int("partition-steps", 256, "auto-dispatch exact mtswitch solves at or above this step count to the exact-partitioned solver (0 disables)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget")

		dataDir  = fs.String("data-dir", "", "durable state directory: journal jobs/sessions to a WAL and spill caches/checkpoints for crash recovery (empty = in-memory only)")
		fsyncPol = fs.String("fsync", "always", "WAL flush policy: always, interval or never")
		fsyncInt = fs.Duration("fsync-interval", 100*time.Millisecond, "background WAL flush period under -fsync interval")
		walSeg   = fs.Int64("wal-segment-bytes", 8<<20, "WAL segment rotation size in bytes")

		peers      = fs.String("peers", "", "comma-separated base URLs of every cluster node, this one included (enables peer cache fill)")
		self       = fs.String("self", "", "this node's own base URL as listed in -peers (required with -peers)")
		nodeID     = fs.String("node-id", "", "node identity reported in /v1/healthz (default: -self, else \"hyperd\")")
		vnodes     = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the hash ring (must match the router's)")
		peerFanout = fs.Int("peer-fanout", cluster.DefaultFanout, "ring siblings asked per canonical-cache miss")
		peerWait   = fs.Duration("peer-wait", cluster.DefaultPeerWait, "how long a sibling may park a fill on its in-flight twin solve")
		healthInt  = fs.Duration("health-interval", time.Second, "peer health sweep period (cluster mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fsync, err := durable.ParseFsyncPolicy(*fsyncPol)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cache,
		MaxSolveTimeout:  *maxTimeout,
		MaxFrontierBytes: *maxBytes,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		MaxSessions:      *maxSess,
		SessionBytes:     *sessBytes,
		PartitionSteps:   *partSteps,
		NodeID:           *nodeID,
		DataDir:          *dataDir,
		Fsync:            fsync,
		FsyncInterval:    *fsyncInt,
		WALSegmentBytes:  *walSeg,
	}
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self (this node's own URL in the list)")
		}
		selfID, err := cluster.NormalizeMemberURL(*self)
		if err != nil {
			return fmt.Errorf("-self: %w", err)
		}
		set, err := cluster.NewMemberSet(strings.Split(*peers, ","), *vnodes)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		if _, ok := set.Member(selfID); !ok {
			return fmt.Errorf("-self %q is not in -peers %q", selfID, *peers)
		}
		pc, err := cluster.NewPeerClient(cluster.PeerClientConfig{
			Self:    selfID,
			Members: set,
			Fanout:  *peerFanout,
			Wait:    *peerWait,
		})
		if err != nil {
			return err
		}
		cfg.PeerFill = pc
		cfg.ClusterStatus = func() *service.RingStatus { return set.Status(selfID) }
		if cfg.NodeID == "" {
			cfg.NodeID = selfID
		}
		checker := cluster.NewHealthChecker(set, *healthInt, nil, selfID)
		checker.Start()
		defer checker.Stop()
		fmt.Fprintf(os.Stderr, "hyperd: cluster mode, self=%s members=%d vnodes=%d\n",
			selfID, len(set.Members()), *vnodes)
	}

	srv, err := service.Open(cfg)
	if err != nil {
		return err
	}
	// The learned-dispatch win table persists alongside the WAL: races
	// observed before a restart keep steering dispatch after it.
	dispatchPath := ""
	if *dataDir != "" {
		dispatchPath = filepath.Join(*dataDir, "dispatch.json")
		if err := portfolio.DefaultTable.Load(dispatchPath); err != nil {
			fmt.Fprintf(os.Stderr, "hyperd: dispatch table: %v (starting empty)\n", err)
		} else if n := portfolio.DefaultTable.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "hyperd: dispatch table: %d learned buckets\n", n)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "hyperd: durable state in %s (fsync=%s)\n", *dataDir, *fsyncPol)
	}
	fmt.Fprintf(os.Stderr, "hyperd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "hyperd: shutting down (draining queue, cancelling in-flight solves)")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if dispatchPath != "" {
		if err := portfolio.DefaultTable.Save(dispatchPath); err != nil {
			fmt.Fprintf(os.Stderr, "hyperd: dispatch table save: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "hyperd: bye")
	return nil
}

// benchResult is one load phase's outcome.
type benchResult struct {
	requests int64
	failures int64
	elapsed  time.Duration
}

func (r benchResult) rate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.requests) / r.elapsed.Seconds()
}

func runBench(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hyperd bench", flag.ContinueOnError)
	var (
		solver   = fs.String("solver", "aligned", "registry solver to drive")
		gen      = fs.String("gen", "phased", "workload generator: phased, bursty, markov, uniform")
		tasks    = fs.Int("tasks", 4, "tasks per generated instance")
		steps    = fs.Int("steps", 64, "steps per generated instance")
		switches = fs.Int("switches", 16, "switches per task")
		conc     = fs.Int("conc", 32, "concurrent client connections")
		duration = fs.Duration("duration", 2*time.Second, "duration of each load phase")
		workers  = fs.Int("workers", 0, "server worker pool size (0 = GOMAXPROCS)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile after the bench run to this file")

		clusterM  = fs.Bool("cluster", false, "bench an N-node cluster behind a router instead of a single daemon")
		nodes     = fs.Int("nodes", 3, "in-process cluster size (cluster mode)")
		routerURL = fs.String("router", "", "existing router base URL; with -peers, bench that cluster instead of spawning one")
		peersF    = fs.String("peers", "", "existing cluster node base URLs, comma-separated (with -router)")
		twins     = fs.Int("twins", 24, "twin pairs driven through the peer-fill correctness phase (cluster mode)")
		jsonOut   = fs.String("json", "", "write the cluster bench report to this file (cluster mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterM || *routerURL != "" {
		return clusterBench(w, clusterBenchOpts{
			solver: *solver, gen: *gen, tasks: *tasks, steps: *steps, switches: *switches,
			conc: *conc, duration: *duration, workers: *workers,
			nodes: *nodes, routerURL: *routerURL, peers: *peersF,
			twins: *twins, jsonPath: *jsonOut,
		})
	}
	generate, ok := workload.Generators()[*gen]
	if !ok {
		return fmt.Errorf("unknown generator %q", *gen)
	}
	stopProf, err := profutil.StartCPU(*cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	defer func() {
		if err := profutil.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "hyperd bench:", err)
		}
	}()

	srv := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: 4096,
		// Uncached phases insert every distinct instance; keep them all
		// so the phases do not interfere.
		CacheEntries: 1 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		httpSrv.Shutdown(ctx)
	}()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *conc}}
	if err := preflightSolver(client, base, *solver); err != nil {
		return err
	}
	makeBody := func(seed int64) ([]byte, error) {
		mt, err := generate(workload.Config{
			Tasks: *tasks, Steps: *steps, Switches: *switches, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(service.SolveRequest{
			Solver:   *solver,
			Instance: service.WireInstanceFrom(mt),
		})
	}
	post := func(body []byte) error {
		resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	fmt.Fprintf(w, "hyperd bench: solver=%s gen=%s m=%d n=%d l=%d conc=%d phase=%v\n",
		*solver, *gen, *tasks, *steps, *switches, *conc, *duration)

	// Phase 1 — uncached baseline: every request is a fresh instance,
	// so the pool solves every one of them.
	var seed atomic.Int64
	uncached, err := phase(*conc, *duration, func() ([]byte, error) {
		return makeBody(seed.Add(1))
	}, post)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "uncached: %d solved (%d failed) in %v = %.1f req/s\n",
		uncached.requests, uncached.failures, uncached.elapsed.Round(time.Millisecond), uncached.rate())

	// Phase 2 — cached: one hot instance, warmed once, answered from
	// the content-addressed cache thereafter.
	hot, err := makeBody(-1)
	if err != nil {
		return err
	}
	if err := post(hot); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	cached, err := phase(*conc, *duration, func() ([]byte, error) { return hot, nil }, post)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cached:   %d solved (%d failed) in %v = %.1f req/s\n",
		cached.requests, cached.failures, cached.elapsed.Round(time.Millisecond), cached.rate())

	if uncached.failures > 0 || cached.failures > 0 {
		return fmt.Errorf("%d requests failed", uncached.failures+cached.failures)
	}
	return nil
}

// preflightSolver asks the daemon which solvers it registers (GET
// /v1/solvers) before driving load at it, failing fast with the
// server's own list instead of hammering it with unknown-solver
// errors.
func preflightSolver(client *http.Client, base, solver string) error {
	resp, err := client.Get(base + "/v1/solvers")
	if err != nil {
		return fmt.Errorf("preflight /v1/solvers: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("preflight /v1/solvers: status %d", resp.StatusCode)
	}
	var sr service.SolversResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("preflight /v1/solvers: %w", err)
	}
	names := make([]string, 0, len(sr.Solvers))
	for _, s := range sr.Solvers {
		if s.Name == solver {
			return nil
		}
		names = append(names, s.Name)
	}
	return fmt.Errorf("preflight: solver %q not registered on the daemon (registered: %s)",
		solver, strings.Join(names, ", "))
}

// phase drives concurrent POSTs for the given duration and tallies
// successes; body-construction errors abort the phase.
func phase(conc int, d time.Duration, makeBody func() ([]byte, error), post func([]byte) error) (benchResult, error) {
	var res benchResult
	var firstErr error
	var errOnce sync.Once
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body, err := makeBody()
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if err := post(body); err != nil {
					atomic.AddInt64(&res.failures, 1)
					continue
				}
				atomic.AddInt64(&res.requests, 1)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, firstErr
}
