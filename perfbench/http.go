package main

// http-sparse: the ftserve daemon built from this tree, started with
// its default flags on a free loopback port, driven by two keep-alive
// HTTP/1.1 connections, each a closed-loop client holding 4 circuits.
// With at most two requests in flight, epochs never fill: every
// admission waits out the MaxWait timer, so the timer-driven flush and
// delivery path, HTTP/JSON and the daemon's handle map do the work.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/federation"
)

const (
	httpClients = 2
	httpHold    = 4
	httpLatCap  = 1 << 14
	// healthzLimit bounds the wait for a started daemon to answer.
	healthzLimit = 10 * time.Second
	// stopLimit bounds the wait for a daemon to exit after SIGINT.
	stopLimit = 15 * time.Second
	// daemonStarts is how often set-up starts the daemon; setup_s is
	// the median start-to-healthz time.
	daemonStarts = 5
)

// daemon is one running ftserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	out    *capped
}

// capped keeps the first 64 KiB of the daemon's output for diagnostics.
type capped struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *capped) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := 64<<10 - c.buf.Len(); room > 0 {
		c.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (c *capped) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// probe is a client that never reuses connections, for liveness checks.
var probe = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// freeAddr picks a loopback port nothing listens on at the moment.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func answers(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := probe.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return true
}

// startDaemon starts ftserve on a free loopback port and returns once
// /healthz answers, with the time that took.
func startDaemon(ctx context.Context, bin string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	return startDaemonAt(ctx, bin, addr)
}

// startDaemonAt refuses an address where something already answers, so
// a stale daemon is never measured in place of the one built here.
func startDaemonAt(ctx context.Context, bin, addr string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no ftserve binary given (--ftserve)")
	}
	d := &daemon{base: "http://" + addr, exited: make(chan error, 1), out: &capped{}}
	if answers(ctx, d.base+"/healthz") {
		return nil, 0, fmt.Errorf("something already answers at %s", addr)
	}
	// -pprof only mounts read-only handlers; heap_mb reads the daemon's
	// live heap through /debug/pprof/heap.
	d.cmd = exec.CommandContext(ctx, bin, "-addr", addr, "-pprof")
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	deadline := time.NewTimer(healthzLimit)
	defer deadline.Stop()
	for !answers(ctx, d.base+"/healthz") {
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("ftserve exited before answering (%v): %s", err, d.out)
		case <-deadline.C:
			d.kill()
			return nil, 0, fmt.Errorf("ftserve did not answer /healthz within %v: %s", healthzLimit, d.out)
		case <-time.After(time.Millisecond):
		}
	}
	return d, time.Since(t0), nil
}

// stop sends SIGINT and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("ftserve did not exit cleanly (%v): %s", err, d.out)
		}
		return nil
	case <-time.After(stopLimit):
		d.kill()
		return fmt.Errorf("ftserve still running %v after SIGINT", stopLimit)
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// httpTarget drives ftserve through one transport capped at
// httpClients connections, kept alive across requests.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients, DisableCompression: true}}}
}

func (t *httpTarget) do(ctx context.Context, method, path, body string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %d %q: %w", method, path, resp.StatusCode, data, err)
		}
	}
	return resp.StatusCode, nil
}

// httpCircuit is a circuit the daemon holds under id. It keeps the
// context of the loop that connected it, because Release takes none.
type httpCircuit struct {
	t   *httpTarget
	ctx context.Context
	id  uint64
}

func (t *httpTarget) connect(ctx context.Context, src, dst int) (circuit, error) {
	var resp struct {
		ID    uint64 `json:"id"`
		Src   int    `json:"src"`
		Dst   int    `json:"dst"`
		Ports []int  `json:"ports"`
		Error string `json:"error"`
	}
	code, err := t.do(ctx, http.MethodPost, "/connect", `{"src":`+strconv.Itoa(src)+`,"dst":`+strconv.Itoa(dst)+`}`, &resp)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusConflict && resp.Error == "unroutable":
		return nil, fabric.ErrUnroutable
	case code != http.StatusOK:
		return nil, fmt.Errorf("POST /connect: %d %s", code, resp.Error)
	case resp.Src != src || resp.Dst != dst || resp.ID == 0:
		return nil, fmt.Errorf("POST /connect %d→%d answered circuit %d for %d→%d", src, dst, resp.ID, resp.Src, resp.Dst)
	}
	return &httpCircuit{t: t, ctx: ctx, id: resp.ID}, nil
}

func (c *httpCircuit) Release() error {
	var resp struct {
		ID       uint64 `json:"id"`
		Released bool   `json:"released"`
		Error    string `json:"error"`
	}
	code, err := c.t.do(c.ctx, http.MethodPost, "/release", `{"id":`+strconv.FormatUint(c.id, 10)+`}`, &resp)
	switch {
	case err != nil:
		return err
	case code != http.StatusOK || !resp.Released || resp.ID != c.id:
		return fmt.Errorf("POST /release %d: %d %s", c.id, code, resp.Error)
	}
	return nil
}

func (t *httpTarget) stats(ctx context.Context) (federation.Stats, error) {
	var st federation.Stats
	code, err := t.do(ctx, http.MethodGet, "/stats", "", &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /stats: %d", code)
	}
	if err == nil && len(st.Planes) != 1 {
		err = fmt.Errorf("GET /stats: %d planes, want 1", len(st.Planes))
	}
	return st, err
}

// heapMB reads the daemon's live heap after a forced collection.
func (t *httpTarget) heapMB(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			return float64(n) / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}

func (t *httpTarget) nodes(ctx context.Context) (int, error) {
	var h struct {
		Nodes int `json:"nodes"`
	}
	code, err := t.do(ctx, http.MethodGet, "/healthz", "", &h)
	if err == nil && (code != http.StatusOK || h.Nodes < 2) {
		err = fmt.Errorf("GET /healthz: %d, %d nodes", code, h.Nodes)
	}
	return h.Nodes, err
}

// httpPhase drives a running daemon and checks its accounting once the
// clients have released everything.
func (b *bench) httpPhase(t *httpTarget, warmup, measure time.Duration, traced bool) (loopResult, planeDelta, error) {
	nodes, err := t.nodes(b.ctx)
	if err != nil {
		return loopResult{}, planeDelta{}, err
	}
	before, err := t.stats(b.ctx)
	if err != nil {
		return loopResult{}, planeDelta{}, err
	}
	lr := closedLoop(b.ctx, t, loopConfig{clients: httpClients, hold: httpHold, nodes: nodes, seed: b.seed,
		warmup: warmup, measure: measure, latCap: httpLatCap, top: layerFtserve, traced: traced})
	b.count(lr.attempted, lr.failed)
	b.checkLoop("http loop", &lr)
	after, err := t.stats(b.ctx)
	if err != nil {
		return lr, planeDelta{}, err
	}
	b.check("daemon accounting", checkSettled(after.Planes[0].Fabric,
		int64(before.Planes[0].Fabric.Granted)+lr.grantedAll))
	return lr, deltaOf(after, before), nil
}

// withDaemon starts ftserve, runs fn against it, and stops it, failing
// the run when the daemon does not exit cleanly.
func (b *bench) withDaemon(fn func(t *httpTarget) error) error {
	d, _, err := startDaemon(b.ctx, b.ftserve)
	if err != nil {
		return err
	}
	err = fn(newHTTPTarget(d.base))
	b.check("ftserve stop", d.stop())
	return err
}

func runHTTP(b *bench) error {
	if b.traced {
		return b.tracedRun(httpRung, b.httpTraced)
	}
	var setups []time.Duration
	var d *daemon
	for i := range daemonStarts {
		nd, setup, err := startDaemon(b.ctx, b.ftserve)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		if i < daemonStarts-1 {
			b.check("ftserve stop", nd.stop())
		}
		d = nd
	}
	b.put("setup_s", median(setups)/1e9, "s")
	err := func() error {
		t := newHTTPTarget(d.base)
		heap, err := t.heapMB(b.ctx)
		if err != nil {
			return err
		}
		b.put("heap_mb", heap, "MB")
		lr, pd, err := b.httpPhase(t, warmupFor(b.dur), b.dur, false)
		if err != nil {
			return err
		}
		b.putAdmit(&lr)
		b.note("epoch_size_mean", pd.epochSizeMean())
		return nil
	}()
	b.check("ftserve stop", d.stop())
	return err
}

// httpRung measures ftserve: the daemon over HTTP, then the same
// streams at the same two clients against an in-process Router, whose
// median Connect the HTTP median less is the daemon's own time.
func httpRung(b *bench, budget time.Duration) (float64, error) {
	warmup, measure := within(budget / 2)
	var hl loopResult
	err := b.withDaemon(func(t *httpTarget) error {
		lr, pd, err := b.httpPhase(t, warmup, measure, false)
		hl = lr
		b.putPlane(pd)
		return err
	})
	if err != nil {
		return 0, err
	}
	r, err := newRouter()
	if err != nil {
		return 0, err
	}
	rl, _, err := b.routerPhase(r, loopConfig{clients: httpClients, hold: httpHold, seed: b.seed,
		warmup: warmup, measure: measure, latCap: httpLatCap, top: layerFederation})
	if err != nil {
		return 0, err
	}
	b.put("ftserve.connect_self_us", selfNS(hl.connect, rl.connect)/1e3, "us")
	b.put("ftserve.release_us", hl.release.median()/1e3, "us")
	b.note("http_rung", map[string]any{"http_samples": hl.connect.count, "router_samples": rl.connect.count})
	return hl.admitPerSec(), nil
}

// httpTraced is the traced phase of http-sparse: a span per client
// operation and one around each HTTP request.
func (b *bench) httpTraced(d time.Duration) (float64, []*recorder, error) {
	var lr loopResult
	err := b.withDaemon(func(t *httpTarget) error {
		var err error
		warmup, measure := within(d)
		lr, _, err = b.httpPhase(t, warmup, measure, true)
		return err
	})
	return lr.admitPerSec(), lr.recs, err
}
