// Command hyperd is the concurrent solve daemon: it serves the solver
// registry over HTTP/JSON with a bounded worker pool, a bounded job
// queue and a content-addressed result cache (see internal/service for
// the wire format).
//
// Usage:
//
//	hyperd [-addr :8077] [-workers N] [-queue N] [-cache N] [-max-timeout 60s]
//	       [-max-frontier-bytes N] [-breaker-threshold N] [-breaker-cooldown 10s]
//	       [-max-sessions N] [-session-bytes N] [-drain 30s]
//	       [-data-dir DIR] [-fsync always|interval|never] [-fsync-interval 100ms]
//	       [-wal-segment-bytes N]
//	       [-peers URL,URL,... -self URL] [-node-id ID] [-vnodes 64]
//	       [-peer-fanout 2] [-peer-wait 1s] [-health-interval 1s]
//	hyperd route -peers URL,URL,... [-addr 127.0.0.1:8078] [-vnodes 64]
//	             [-sticky N] [-max-timeout 60s] [-max-frontier-bytes N]
//
// The default mode serves until SIGINT/SIGTERM, then shuts down
// gracefully: new submits are rejected, queued jobs drain as canceled,
// and in-flight solves stop at their next cancellation checkpoint.
// With -data-dir the daemon journals job submissions, completions
// (their results included) and session step batches to a write-ahead
// log under that directory; after a crash (or kill -9) a restart on the
// same directory replays the journal, warms the canonical cache from
// it, rebuilds streaming sessions' engines from their journaled traces
// and re-enqueues incomplete jobs. The graceful drain compacts the WAL
// into a snapshot of live state, the canonical cache in LRU order
// included, and flushes it before exit.
// With -session-bytes the least recently used session engines beyond
// the budget are closed; a session's next batch rebuilds its engine
// from the trace.
// With -peers and -self it joins a cluster: canonical-cache misses are
// filled from the ring siblings over GET /v1/cache/{key} before the
// local pool solves, and a fill may park on a sibling's in-flight twin
// solve (cross-node singleflight).
//
// route is the cluster front door: it hashes solve submissions onto
// the nodes by canonical form (twins land on one owner), fails over
// along the ring past unhealthy members, and pins job polls and
// streaming sessions to the node holding their state.  It is the one
// subcommand and must come first: any other positional argument is an
// error, not a word the flag parser silently stops at.
//
// Load tests go through perfbench (perfbench/README.md), which drives
// a daemon end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/service"
)

func main() {
	args := os.Args[1:]
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

// noPositional rejects an argument the flag parser stopped at.  Parsing
// ends at the first non-flag word, so a typo'd subcommand or a stray
// word would otherwise drop itself and every flag after it.
func noPositional(fs *flag.FlagSet) error {
	if fs.NArg() == 0 {
		return nil
	}
	return fmt.Errorf("unexpected argument %q: the one subcommand is route, and it comes first", fs.Arg(0))
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("hyperd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8077", "listen address")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 256, "job queue depth")
		cache      = fs.Int("cache", 1024, "entries in the result cache and in the canonical store, and so in the drain snapshot (negative disables both)")
		maxTimeout = fs.Duration("max-timeout", time.Minute, "per-job solve deadline cap (0 = none)")
		maxBytes   = fs.Int64("max-frontier-bytes", 1<<30, "per-job solver memory budget in bytes; exhaustion degrades exact solves to beam search (0 = none)")
		brkThresh  = fs.Int("breaker-threshold", 5, "consecutive solver panics/timeouts that trip its circuit breaker (negative disables)")
		brkCool    = fs.Duration("breaker-cooldown", 10*time.Second, "how long a tripped breaker fails fast before probing")
		maxSess    = fs.Int("max-sessions", 64, "concurrent streaming sessions")
		sessBytes  = fs.Int64("session-bytes", 64<<20, "total session engine memory before LRU engines are closed, to be rebuilt from their traces on the next batch (negative disables)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget")

		dataDir  = fs.String("data-dir", "", "durable state directory: journal jobs, results and sessions to a WAL for crash recovery (empty = in-memory only)")
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
	if err := noPositional(fs); err != nil {
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
	fmt.Fprintln(os.Stderr, "hyperd: bye")
	return nil
}
