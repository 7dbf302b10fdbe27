package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// server is one dprofd process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
}

// startServer launches dprofd on a free loopback port over storeDir and
// waits until it answers /healthz.
func startServer(ctx context.Context, e *env, storeDir, logName string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(e.scratch, logName))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.dprofd, "-addr", addr, "-workers", strconv.Itoa(runtime.NumCPU()), "-quick", "-store-dir", storeDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dprofd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }() // exit status is judged by stop
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("dprofd exited during start-up (log: %s)", logName)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("dprofd did not become healthy within 20s")
		}
	}
}

// stop interrupts the server, waits for it to exit, and kills it if it
// has not exited after 30 seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGINT) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// client sends deck requests on at most conns connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}}
}

// send performs one request and returns the body's SHA-256. A transport
// error, a client timeout and a non-200 status are errors.
func (c *client) send(ctx context.Context, r request) ([32]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return [32]byte{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return [32]byte{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return [32]byte{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return [32]byte{}, fmt.Errorf("%s %s: status %d: %.200s", r.Class, r.Path, resp.StatusCode, body)
	}
	if !json.Valid(body) {
		return [32]byte{}, fmt.Errorf("%s %s: response is not JSON", r.Class, r.Path)
	}
	return sha256.Sum256(body), nil
}

// sendAll sends reqs closed-loop on conns connections, returning each
// body's hash; any failure is an error (set-up must succeed completely).
func (c *client) sendAll(ctx context.Context, reqs []request, conns int) ([][32]byte, error) {
	sums := make([][32]byte, len(reqs))
	errs := make([]error, len(reqs))
	runOpenLoop(ctx, time.Now(), make([]time.Duration, len(reqs)), conns, func(ctx context.Context, i int) error {
		sums[i], errs[i] = c.send(ctx, reqs[i])
		return errs[i]
	})
	return sums, errors.Join(errs...)
}

// stats reads GET /stats.
func (c *client) stats(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return out, nil
}

// statNum reads a numeric /stats field by path ("cache", "hits").
func statNum(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, p := range path {
		mm, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = mm[p]
	}
	f, _ := cur.(float64)
	return f
}

// served is a serving instance ready for the timed phase.
type served struct {
	srv    *server
	c      *client
	expect map[string][32]byte // body hash by key, for keys answered in set-up
	dir    string
}

// setupServe prepares one serving instance: a prefill instance writes the
// disk-class documents to a fresh store, a second instance restarts on it,
// warms the hot head into its LRU, and captures the fork checkpoints.
func setupServe(ctx context.Context, e *env, d *deck, rep int) (*served, error) {
	conns := runtime.NumCPU()
	dir := filepath.Join(e.scratch, fmt.Sprintf("serve-%d", rep))
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	expect := map[string][32]byte{}

	a, err := startServer(ctx, e, store, fmt.Sprintf("dprofd-prefill-%d.log", rep))
	if err != nil {
		return nil, err
	}
	sums, err := newClient(a.base, conns).sendAll(ctx, d.Disk, conns)
	a.stop()
	if err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	for i, r := range d.Disk {
		expect[r.Key] = sums[i]
	}

	b, err := startServer(ctx, e, store, fmt.Sprintf("dprofd-serve-%d.log", rep))
	if err != nil {
		return nil, err
	}
	c := newClient(b.base, conns)
	warm := append(append([]request(nil), d.Hot...), d.Capture...)
	sums, err = c.sendAll(ctx, warm, conns)
	if err != nil {
		b.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i, r := range warm {
		expect[r.Key] = sums[i]
	}
	return &served{srv: b, c: c, expect: expect, dir: dir}, nil
}

func (s *served) close() {
	s.srv.stop()
	_ = os.RemoveAll(s.dir) // scratch space; the next run empties it anyway
}

// runServe drives dprofd with the seeded deck: an open loop at the low
// offered rate for two thirds of the measured phase, then at the high rate.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	phases := phaseLengths(e.seconds)
	d := buildDeck(e.seed, phases)
	var (
		setups []float64
		s      *served
	)
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setupServe(ctx, e, d, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	before, err := s.c.stats(ctx)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	conns := runtime.NumCPU()
	due := make([]time.Duration, len(d.Timed))
	for i, r := range d.Timed {
		due[i] = r.Due
	}
	start := time.Now()
	res := runOpenLoop(ctx, start, due, conns, func(ctx context.Context, i int) error {
		r := d.Timed[i]
		sum, err := s.c.send(ctx, r)
		if err != nil {
			return err
		}
		if want, ok := s.expect[r.Key]; ok && want != sum {
			return errors.New("body differs from the one served for this key in set-up")
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := s.c.stats(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(s.srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		phaseMs    [2][]float64
		classMs    = map[string][]float64{}
		lateMs     []float64
		servedHigh int // completions inside the high-rate window
	)
	for i, t := range res {
		r := d.Timed[i]
		o.attempted++
		lateMs = append(lateMs, ms(t.Late))
		if t.Err != nil {
			o.failed++
			e.printf("FAIL %s request %d: %v\n", r.Class, i, t.Err)
			continue
		}
		l := ms(t.Latency)
		phaseMs[r.Phase] = append(phaseMs[r.Phase], l)
		classMs[r.Class] = append(classMs[r.Class], l)
		if done := r.Due + t.Latency; done >= phases[0] && done < e.seconds {
			servedHigh++
		}
		// Spans split the latency into the wait for a connection and the
		// HTTP exchange. They are assembled from the timings every run
		// takes, after the timed phase, so tracing adds no work to it.
		if tr != nil {
			at := start.Add(r.Due)
			root := tr.add(uint64(i), "request."+r.Class, -1, at, at.Add(t.Latency))
			tr.add(uint64(i), "wait", root, at, at.Add(t.Sent))
			tr.add(uint64(i), "http", root, at.Add(t.Sent), at.Add(t.Latency))
		}
	}
	o.spans = tr.snapshot()

	l := o.layer
	low, high := summarize(phaseMs[0]), summarize(phaseMs[1])
	l["serve.high_p50_ms"], l["serve.high_tail_ms"] = high.P50, high.Tail
	for _, c := range serveClasses {
		sum := summarize(classMs[c])
		l["serve."+c+"_p50_ms"], l["serve."+c+"_tail_ms"] = sum.P50, sum.Tail
		e.printf("serve.%s_ms %s\n", c, sum)
	}
	delta := func(path ...string) float64 { return statNum(after, path...) - statNum(before, path...) }
	l["serve.simulations"] = delta("simulations")
	l["serve.lru_hit_ratio"] = ratio(delta("cache", "hits"), delta("cache", "hits")+delta("cache", "misses"))
	l["serve.lru_evictions"] = delta("cache", "evictions")
	l["serve.dedups"] = delta("singleflight", "deduplicated")
	l["ckpt.captures"] = delta("checkpoints", "captures")
	l["ckpt.forks"] = delta("checkpoints", "forks")
	l["ckpt.bytes"] = statNum(after, "checkpoints", "bytes")
	l["ckpt.evictions"] = delta("checkpoints", "evictions")
	l["store.hits"] = delta("store", "hits")
	l["store.puts"] = delta("store", "puts")
	l["store.bytes_written"] = delta("store", "bytes_written")
	l["ingest.samples_accepted"] = delta("ingest", "samples_accepted")
	l["ingest.parse_failures"] = delta("ingest", "parse_failures")
	late := summarize(lateMs)
	l["gen.late_p50_ms"], l["gen.late_tail_ms"] = late.P50, late.Tail
	l["gen.requests"] = float64(len(res))

	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["op_p50_ms"] = low.P50
	o.e2e["op_tail_ms"] = low.Tail
	o.e2e["ops_per_s"] = float64(servedHigh) / phases[1].Seconds()
	e.printf("setup_s %.4f s (median of %d)\n", o.e2e["setup_s"], len(setups))
	e.printf("peak_rss_mb %.1f MiB (dprofd)\n", rss)
	e.printf("low.p50_ms %.4f low.tail_ms %.4f (offered %.1f req/s: %s)\n", low.P50, low.Tail, lowRate, low)
	e.printf("high.p50_ms %.4f high.tail_ms %.4f (offered %.1f req/s: %s)\n", high.P50, high.Tail, highRate, high)
	e.printf("high.served_rps %.4f req/s\n", o.e2e["ops_per_s"])
	e.printf("gen.late_ms %s\n", late)
	return o, nil
}

// probeCapacity sets up one instance and sends the whole timed deck
// closed-loop on nproc connections, printing the completions per second.
// The offered rates in deck.go were chosen from its output.
func probeCapacity(ctx context.Context, e *env) error {
	d := buildDeck(e.seed, phaseLengths(e.seconds))
	s, err := setupServe(ctx, e, d, 0)
	if err != nil {
		return err
	}
	defer s.close()
	t0 := time.Now()
	if _, err := s.c.sendAll(ctx, d.Timed, runtime.NumCPU()); err != nil {
		return err
	}
	el := time.Since(t0)
	e.printf("capacity: %d requests in %.3f s = %.2f req/s\n", len(d.Timed), el.Seconds(), float64(len(d.Timed))/el.Seconds())
	return nil
}
