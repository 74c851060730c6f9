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
	"repro/internal/resilience"
	"repro/internal/service"
)

// runRoute is `hyperd route`: the cluster front door.  It hashes solve
// submissions onto the nodes by canonical form, fails over along the
// ring, and pins job polls and streaming sessions to the node holding
// their state.  -max-timeout and -max-frontier-bytes must mirror the
// nodes' serve flags so the router's shard keys align with the nodes'
// canonical store keys.
func runRoute(args []string) error {
	fs := flag.NewFlagSet("hyperd route", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8078", "listen address")
		peers      = fs.String("peers", "", "comma-separated hyperd node base URLs (required)")
		vnodes     = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the hash ring (must match the nodes')")
		healthInt  = fs.Duration("health-interval", time.Second, "node health sweep period")
		sticky     = fs.Int("sticky", cluster.DefaultStickyCap, "max learned job/session placements per table (LRU beyond)")
		brkThresh  = fs.Int("breaker-threshold", 5, "consecutive node transport failures that trip its breaker")
		brkCool    = fs.Duration("breaker-cooldown", 10*time.Second, "how long a tripped node breaker fails fast before probing")
		maxTimeout = fs.Duration("max-timeout", time.Minute, "the nodes' per-job deadline cap, mirrored for shard hashing")
		maxBytes   = fs.Int64("max-frontier-bytes", 1<<30, "the nodes' per-job memory budget, mirrored for shard hashing")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := noPositional(fs); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("-peers is required")
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:          strings.Split(*peers, ","),
		VNodes:         *vnodes,
		HealthInterval: *healthInt,
		StickyCap:      *sticky,
		Breaker:        resilience.BreakerConfig{Threshold: *brkThresh, Cooldown: *brkCool},
		Limits: service.RouteLimits{
			MaxSolveTimeout:  *maxTimeout,
			MaxFrontierBytes: *maxBytes,
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hyperd route: listening on http://%s, %d members, %d vnodes\n",
		ln.Addr(), len(rt.Members().Members()), *vnodes)

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
	fmt.Fprintln(os.Stderr, "hyperd route: shutting down")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "hyperd route: bye")
	return nil
}
