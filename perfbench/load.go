package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// clients is the closed-loop client count and the connection cap of
// every workload: at most nproc (2 on the reference host) requests in
// flight, because more concurrency on 2 vCPUs measured the scheduler.
const clients = 2

// durableFsync is stream-durable's WAL flush policy.  hyperd's default,
// always, fsyncs every batch, and each fsync exits to the host's block
// device: over five 20-s runs the host's I/O load moved p50_ms by 26%
// and throughput_ops by 21% (IQR / median), against 6% and 12% under
// interval, which still appends every batch to the WAL and flushes it
// every 100 ms.
const durableFsync = "interval"

// cpuEvery is how often the load generator samples hyperd's CPU time
// during the timed phase.
const cpuEvery = 50 * time.Millisecond

// genHeapLimit bounds the load generator's heap while its collector is
// paused during the timed phase.
const genHeapLimit = 1 << 30

// opResult is what the load generator saw of one request.
type opResult struct {
	start, end time.Time // request sent, final answer received
	due        time.Time // open loop: when the op was due
	submitRTT  time.Duration
	status     int
	body       []byte
	err        error
}

// pass is one hyperd process driven through set-up and one timed
// phase.
type pass struct {
	setup         []time.Duration
	baseBodies    [][]byte // cache-twins set-up answers
	results       []opResult
	opens, closes []opResult // stream-durable session opens and deletes
	begin, end    time.Time
	before, after *snapshot
	cpu           []cpuSample // hyperd's and the host's CPU time through the timed phase
}

// runPass starts hyperd setups times (keeping the last), runs the
// workload's fixed warm-up on each and then the timed phase on the
// last one, scraping the daemon's counters around the timed phase.
func runPass(ctx context.Context, cfg config, p *plan, setups int) (*pass, error) {
	c := newClient(clients)
	defer c.CloseIdleConnections()
	ps := &pass{}
	var h *hyperd
	stop := func() {
		if h != nil {
			h.stop()
			if h.dataDir != "" {
				os.RemoveAll(h.dataDir)
			}
			h = nil
		}
	}
	defer stop()
	for k := 0; k < setups; k++ {
		stop()
		t0 := time.Now()
		var args []string
		dataDir := ""
		if p.durable {
			dataDir = filepath.Join(cfg.workdir, fmt.Sprintf("data-%d-%d", os.Getpid(), k))
			os.RemoveAll(dataDir)
			args = []string{"-data-dir", dataDir, "-fsync", durableFsync}
		}
		var err error
		if h, err = startHyperd(ctx, cfg.hyperd, args, dataDir); err != nil {
			return nil, err
		}
		if err := h.waitReady(ctx, c); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, c, h, p, ps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ps.setup = append(ps.setup, time.Since(t0))
	}
	var err error
	if ps.before, err = h.snapshot(ctx, c); err != nil {
		return nil, err
	}
	ps.results = make([]opResult, len(p.ops))
	// The load generator shares the CPUs with hyperd: keep its own
	// garbage collector out of the timed phase unless its heap nears
	// the limit.
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(genHeapLimit))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stopCPU := sampleCPU(h.pid(), cpuEvery)
	ps.begin = time.Now()
	switch {
	case p.streams != nil:
		ps.opens, ps.closes = runStreams(ctx, c, h.base, p.streams, ps.results)
	case p.due != nil:
		ps.begin = runOpenLoop(ctx, h.base, p, ps.results)
	default:
		closedLoop(len(p.ops), func(i int) { ps.results[i] = post(ctx, c, h.base+"/v1/solve", p.ops[i].body) })
	}
	ps.end = time.Now()
	ps.cpu = stopCPU()
	if ps.after, err = h.snapshot(ctx, c); err != nil {
		return nil, err
	}
	return ps, ctx.Err()
}

// warmUp runs the workload's fixed set-up work: the cache-twins base
// solves, the warm-up streams or the warm-up solves.  Every answer
// must be a 2xx.
func warmUp(ctx context.Context, c *http.Client, h *hyperd, p *plan, ps *pass) error {
	switch {
	case p.warmSt != nil:
		res := make([]opResult, countBatches(p.warmSt))
		opens, closes := runStreams(ctx, c, h.base, p.warmSt, res)
		return firstFailure(append(append(res, opens...), closes...))
	case p.bases != nil:
		res := make([]opResult, len(p.bases))
		closedLoop(len(p.bases), func(i int) { res[i] = post(ctx, c, h.base+"/v1/solve", p.bases[i].body) })
		ps.baseBodies = make([][]byte, len(res))
		for i, r := range res {
			ps.baseBodies[i] = r.body
		}
		return firstFailure(res)
	default:
		res := make([]opResult, len(p.warm))
		closedLoop(len(p.warm), func(i int) { res[i] = post(ctx, c, h.base+"/v1/solve", p.warm[i].body) })
		return firstFailure(res)
	}
}

func firstFailure(res []opResult) error {
	for _, r := range res {
		if r.err != nil {
			return r.err
		}
		if r.status/100 != 2 {
			return fmt.Errorf("status %d: %s", r.status, r.body)
		}
	}
	return nil
}

func countBatches(streams []*stream) int {
	n := 0
	for _, s := range streams {
		n += len(s.batches)
	}
	return n
}

func post(ctx context.Context, c *http.Client, url string, body []byte) opResult {
	r := opResult{start: time.Now()}
	r.status, r.body, r.err = send(ctx, c, http.MethodPost, url, body)
	r.end = time.Now()
	return r
}

// closedLoop hands out indexes 0..n-1 in order to the clients, each
// sending its next op only once its previous one was answered.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runStreams plays sessions closed-loop: each client opens the next
// stream's session, posts its batches in order and deletes it.  Batch
// answers land in res at the batch's op index within the streams.
func runStreams(ctx context.Context, c *http.Client, base string, streams []*stream, res []opResult) (opens, closes []opResult) {
	opens = make([]opResult, len(streams))
	closes = make([]opResult, len(streams))
	first := make([]int, len(streams))
	n := 0
	for i, s := range streams {
		first[i] = n
		n += len(s.batches)
	}
	closedLoop(len(streams), func(i int) {
		s := streams[i]
		opens[i] = post(ctx, c, base+"/v1/sessions", s.opener)
		var st service.SessionStatus
		if opens[i].err == nil && opens[i].status == http.StatusCreated {
			if err := json.Unmarshal(opens[i].body, &st); err != nil {
				opens[i].err = err
			}
		}
		if st.ID == "" {
			for k := range s.batches {
				res[first[i]+k] = opResult{err: fmt.Errorf("session not opened")}
			}
			return
		}
		for k, b := range s.batches {
			res[first[i]+k] = post(ctx, c, base+"/v1/sessions/"+st.ID+"/steps", b.body)
		}
		closes[i] = opResult{start: time.Now()}
		closes[i].status, closes[i].body, closes[i].err = send(ctx, c, http.MethodDelete, base+"/v1/sessions/"+st.ID, nil)
		closes[i].end = time.Now()
	})
	return opens, closes
}

// runOpenLoop submits every op at its due time over one connection
// (POST /v1/jobs) and long-polls the answers in submission order over
// a second one.  It returns the instant the schedule started.
func runOpenLoop(ctx context.Context, base string, p *plan, res []opResult) time.Time {
	submitter, waiter := newClient(1), newClient(1)
	defer submitter.CloseIdleConnections()
	defer waiter.CloseIdleConnections()
	type submitted struct {
		i  int
		id string
	}
	ids := make(chan submitted, len(p.ops)) // one slot per op: the submitter never blocks on the waiter
	start := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(ids)
		for i, o := range p.ops {
			due := start.Add(p.due[i])
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			r := post(ctx, submitter, base+"/v1/jobs", o.body)
			r.due, r.submitRTT = due, r.end.Sub(r.start)
			res[i] = r
			if r.err != nil || r.status/100 != 2 {
				continue
			}
			var st service.JobStatus
			if err := json.Unmarshal(r.body, &st); err != nil {
				res[i].err = err
				continue
			}
			ids <- submitted{i, st.ID}
		}
	}()
	for s := range ids {
		for {
			status, body, err := send(ctx, waiter, http.MethodGet, base+"/v1/jobs/"+s.id+"/wait?timeout_ms=60000", nil)
			r := &res[s.i]
			r.status, r.body, r.err, r.end = status, body, err, time.Now()
			if err != nil || status != http.StatusOK {
				break
			}
			var st service.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				r.err = err
				break
			}
			if service.JobState(st.State).Terminal() {
				break
			}
		}
	}
	return start
}
