package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// hyperd is one running daemon process.
type hyperd struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	exited  chan struct{}

	mu   sync.Mutex
	logs []string // the last lines of its standard error
}

const keepLogLines = 40

// startHyperd execs the binary on an ephemeral loopback port and
// returns once it has printed its listening address.
func startHyperd(ctx context.Context, bin string, args []string, dataDir string) (*hyperd, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the load generator, even if the
	// generator is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hyperd: %w", err)
	}
	h := &hyperd{cmd: cmd, dataDir: dataDir, exited: make(chan struct{})}
	addr := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			h.mu.Lock()
			h.logs = append(h.logs, line)
			if len(h.logs) > keepLogLines {
				h.logs = h.logs[1:]
			}
			h.mu.Unlock()
		}
	}()
	go func() {
		<-scanDone // Wait must not run before the pipe is drained
		cmd.Wait()
		close(h.exited)
	}()
	select {
	case h.base = <-addr:
		return h, nil
	case <-h.exited:
		return nil, fmt.Errorf("hyperd exited before listening: %s", h.tail())
	case <-time.After(30 * time.Second):
		h.stop()
		return nil, fmt.Errorf("hyperd did not listen within 30s: %s", h.tail())
	case <-ctx.Done():
		h.stop()
		return nil, ctx.Err()
	}
}

func (h *hyperd) tail() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.logs, " | ")
}

func (h *hyperd) pid() int { return h.cmd.Process.Pid }

// waitReady polls /v1/healthz until the daemon reports state ready
// (a daemon with a data dir replays its journal first).
func (h *hyperd) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, err := send(ctx, c, http.MethodGet, h.base+"/v1/healthz", nil)
		if err == nil && status == http.StatusOK {
			var hs service.HealthStatus
			if json.Unmarshal(body, &hs) == nil && hs.State == "ready" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hyperd not ready within 60s: %s", h.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-h.exited:
			return fmt.Errorf("hyperd exited during start-up: %s", h.tail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if the drain outlasts 30 seconds.
func (h *hyperd) stop() {
	select {
	case <-h.exited:
		return
	default:
	}
	h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.exited:
	case <-time.After(30 * time.Second):
		h.cmd.Process.Kill()
		<-h.exited
	}
}

// snapshot is the daemon's counters at one instant, read from outside
// the process: its /metrics page and /proc/<pid>/{stat,status}.
type snapshot struct {
	metrics  map[string]float64
	cpuTicks int64 // utime+stime
	sysTicks int64
	volCS    int64
	nonvolCS int64
	threads  int64
	hwmKB    int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

func (h *hyperd) snapshot(ctx context.Context, c *http.Client) (*snapshot, error) {
	status, body, err := send(ctx, c, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", status)
	}
	s := &snapshot{metrics: parseMetrics(string(body))}
	if s.cpuTicks, s.sysTicks, err = procTicks(h.pid()); err != nil {
		return nil, err
	}
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.pid()))
	if err != nil {
		return nil, err
	}
	s.hwmKB, s.threads = statusField(st, "VmHWM"), statusField(st, "Threads")
	// Context switches are per thread: sum them over the live threads.
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", h.pid()))
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/status", h.pid(), t.Name()))
		if err != nil {
			continue // the thread exited meanwhile
		}
		s.volCS += statusField(ts, "voluntary_ctxt_switches")
		s.nonvolCS += statusField(ts, "nonvoluntary_ctxt_switches")
	}
	return s, nil
}

// procTicks reads a process's utime+stime and stime from
// /proc/<pid>/stat, in clock ticks.
func procTicks(pid int) (cpu, sys int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return utime + stime, stime, nil
}

// cpuSample is, at one instant, hyperd's utime+stime and the host's
// stolen and total CPU time from /proc/stat, all in clock ticks.
type cpuSample struct {
	at         time.Time
	ticks      int64
	steal, all int64
}

// hostTicks reads the stolen and the total CPU time of the machine.
func hostTicks() (steal, all int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		all += v
		if i == 8 {
			steal = v
		}
	}
	return steal, all, nil
}

// sampleCPU samples hyperd's and the host's CPU time every interval
// until the returned stop function is called; stop returns the samples.
func sampleCPU(pid int, every time.Duration) (stop func() []cpuSample) {
	done := make(chan struct{})
	out := make(chan []cpuSample, 1)
	go func() {
		var samples []cpuSample
		read := func() {
			ticks, _, err := procTicks(pid)
			if err != nil {
				return
			}
			steal, all, err := hostTicks()
			if err != nil {
				return
			}
			samples = append(samples, cpuSample{time.Now(), ticks, steal, all})
		}
		t := time.NewTicker(every)
		defer t.Stop()
		read()
		for {
			select {
			case <-done:
				read()
				out <- samples
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() []cpuSample {
		close(done)
		return <-out
	}
}

// interp interpolates one field of the samples at instant t.
func interp(samples []cpuSample, t time.Time, field func(cpuSample) int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !t.After(samples[0].at) {
		return float64(field(samples[0]))
	}
	for i := 1; i < len(samples); i++ {
		if a, b := samples[i-1], samples[i]; !t.After(b.at) {
			f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
			return float64(field(a)) + f*float64(field(b)-field(a))
		}
	}
	return float64(field(samples[len(samples)-1]))
}

func hyperdTicks(s cpuSample) int64 { return s.ticks }
func stealTicks(s cpuSample) int64  { return s.steal }
func allTicks(s cpuSample) int64    { return s.all }

// stolen is the share of the host's CPU time the hypervisor stole
// during [a, b].
func stolen(samples []cpuSample, a, b time.Time) float64 {
	all := interp(samples, b, allTicks) - interp(samples, a, allTicks)
	if all <= 0 {
		return 0
	}
	return (interp(samples, b, stealTicks) - interp(samples, a, stealTicks)) / all
}

// statusField reads one numeric field of a /proc status file.
func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// parseMetrics reads the Prometheus text format into series → value.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is the change of one series between two snapshots.
func delta(a, b *snapshot, series string) float64 {
	return b.metrics[series] - a.metrics[series]
}

// newClient returns an HTTP client that opens at most conns
// connections and never uses a proxy.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 150 * time.Second,
	}
}

// send makes one request and reads the whole response body.
func send(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
