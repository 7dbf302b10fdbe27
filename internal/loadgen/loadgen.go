// Package loadgen is dprofd's load harness: a closed-loop generator that
// replays a Zipf-distributed request mix against one or more replicas and
// reports the serving trajectory — throughput, latency percentiles, and
// the cache/dedup disposition mix.
//
// The request deck is deterministic: Deck(keys, seed) enumerates distinct
// POST /profile bodies over workload × options × views (cheap quick
// scenarios, one simulated millisecond each), so two runs with the same
// configuration replay the identical mix. Ranks draw from a Zipf
// distribution — rank 0 hottest — which is what a profile-serving fleet
// sees in practice: a few hot (workload, options) points dominating a
// long tail of one-off requests. Closed-loop means each worker waits for
// its response before issuing the next request, so concurrency bounds
// offered load and the latency numbers are honest queueing measurements.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dprof/internal/benchmeta"
)

// Config parameterizes one load run.
type Config struct {
	// Targets are the replica base URLs; each request picks one uniformly.
	Targets []string
	// Requests is the total request count across all workers.
	Requests int
	// Concurrency is the closed-loop worker count (default 4).
	Concurrency int
	// Keys is the distinct-request deck size (default 32).
	Keys int
	// ZipfS and ZipfV shape the rank distribution (defaults 1.2 and 1;
	// NewZipf requires s > 1, v >= 1).
	ZipfS, ZipfV float64
	// Seed makes the deck and the draw sequence reproducible.
	Seed int64
}

func (c *Config) defaults() error {
	if len(c.Targets) == 0 {
		return errors.New("loadgen: no targets")
	}
	if c.Requests <= 0 {
		return errors.New("loadgen: requests must be positive")
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Keys <= 0 {
		c.Keys = 32
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ZipfV == 0 {
		c.ZipfV = 1
	}
	if c.ZipfS <= 1 || c.ZipfV < 1 {
		return fmt.Errorf("loadgen: zipf wants s > 1, v >= 1 (got s=%g v=%g)", c.ZipfS, c.ZipfV)
	}
	return nil
}

// Request is one deck entry: a label for reporting and the POST /profile
// body that realizes it.
type Request struct {
	Name string `json:"name"`
	Body []byte `json:"-"`
}

// profileBody mirrors serve.ProfileRequest's wire shape; loadgen builds
// bodies structurally so the deck stays valid as the API grows.
type profileBody struct {
	Workload  string            `json:"workload"`
	Options   map[string]string `json:"options,omitempty"`
	Views     []string          `json:"views,omitempty"`
	MeasureMs uint64            `json:"measure_ms,omitempty"`
	Quick     bool              `json:"quick"`
}

// deckWorkloads are the cheap registered scenarios the deck cycles
// through; every one declares the shared seed option, which is what makes
// each deck entry a distinct content address.
var deckWorkloads = []string{"falseshare", "trueshare", "conflict", "alienping"}

var deckViews = [][]string{
	{"dataprofile"},
	{"dataprofile", "missclass"},
}

// Deck enumerates n distinct requests over workload × options × views,
// deterministically: entry i is always the same request for the same
// seed. Rank order is deck order — under Zipf, deck[0] is the hottest key.
func Deck(n int, seed int64) []Request {
	out := make([]Request, 0, n)
	combos := len(deckWorkloads) * len(deckViews)
	for i := 0; i < n; i++ {
		wl := deckWorkloads[i%len(deckWorkloads)]
		views := deckViews[(i/len(deckWorkloads))%len(deckViews)]
		// The seed option advances once per full workload×views cycle, so
		// every (workload, views, seed) triple — every content address —
		// is distinct. Offsetting by the deck seed keeps two decks with
		// different seeds disjoint.
		opt := strconv.FormatInt(seed*int64(n)+1+int64(i/combos), 10)
		body, err := json.Marshal(profileBody{
			Workload:  wl,
			Options:   map[string]string{"seed": opt},
			Views:     views,
			MeasureMs: 1,
			Quick:     true,
		})
		if err != nil {
			panic("loadgen: deck body not marshalable: " + err.Error()) // plain data; cannot happen
		}
		out = append(out, Request{
			Name: fmt.Sprintf("%s/seed=%s/v%d", wl, opt, len(views)),
			Body: body,
		})
	}
	return out
}

// Latency is the latency profile of one run, in milliseconds.
type Latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Result is one run's measurements.
type Result struct {
	Requests     int            `json:"requests"`
	Errors       int            `json:"errors"`
	Seconds      float64        `json:"seconds"`
	Throughput   float64        `json:"throughput_rps"`
	Latency      Latency        `json:"latency_ms"`
	Dispositions map[string]int `json:"dispositions"`
	Statuses     map[string]int `json:"statuses"`
}

// worker accumulates privately; results merge after the WaitGroup, so the
// hot loop shares nothing.
type worker struct {
	latencies    []float64
	errors       int
	dispositions map[string]int
	statuses     map[string]int
}

// Run executes one closed-loop load run and aggregates the measurements.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	deck := Deck(cfg.Keys, cfg.Seed)
	client := &http.Client{}
	var next atomic.Int64
	take := func() bool { return next.Add(1) <= int64(cfg.Requests) }

	workers := make([]worker, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &workers[w]
			st.dispositions = map[string]int{}
			st.statuses = map[string]int{}
			// Worker-private randomness derived from the run seed: the
			// draw sequence is reproducible for a fixed concurrency.
			rng := rand.New(rand.NewSource(cfg.Seed<<16 + int64(w)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(deck)-1))
			for take() {
				if ctx.Err() != nil {
					return
				}
				req := deck[zipf.Uint64()]
				target := cfg.Targets[rng.Intn(len(cfg.Targets))]
				t0 := time.Now()
				resp, err := client.Post(target+"/profile", "application/json", bytes.NewReader(req.Body))
				lat := time.Since(t0)
				if err != nil {
					st.errors++
					continue
				}
				resp.Body.Close()
				st.latencies = append(st.latencies, float64(lat)/float64(time.Millisecond))
				st.statuses[strconv.Itoa(resp.StatusCode)]++
				d := resp.Header.Get("X-DProf-Cache")
				if d == "" {
					d = "none"
				}
				st.dispositions[d]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := Result{
		Seconds:      elapsed,
		Dispositions: map[string]int{},
		Statuses:     map[string]int{},
	}
	var all []float64
	for _, st := range workers {
		res.Errors += st.errors
		all = append(all, st.latencies...)
		for k, v := range st.dispositions {
			res.Dispositions[k] += v
		}
		for k, v := range st.statuses {
			res.Statuses[k] += v
		}
	}
	// Requests reports what actually happened — a cancelled run counts
	// only what it issued.
	res.Requests = len(all) + res.Errors
	if elapsed > 0 {
		res.Throughput = float64(len(all)) / elapsed
	}
	res.Latency = percentiles(all)
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// percentiles reduces a latency sample to the reporting profile.
func percentiles(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q*float64(len(ms))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ms) {
			i = len(ms) - 1
		}
		return ms[i]
	}
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return Latency{
		P50:  at(0.50),
		P95:  at(0.95),
		P99:  at(0.99),
		Mean: sum / float64(len(ms)),
		Max:  ms[len(ms)-1],
	}
}

// Artifact is what dprof-loadgen -json writes: run configuration, the
// shared benchmeta provenance block (commit, time, host), and one Result
// per phase (e.g. cold / warm / multi_replica).
type Artifact struct {
	Benchmark string `json:"benchmark"`
	benchmeta.Provenance
	Keys             int               `json:"keys"`
	ZipfS            float64           `json:"zipf_s"`
	ZipfV            float64           `json:"zipf_v"`
	Concurrency      int               `json:"concurrency"`
	RequestsPerPhase int               `json:"requests_per_phase"`
	Phases           map[string]Result `json:"phases"`
}

// NewArtifact stamps an artifact with the run configuration and host.
func NewArtifact(cfg Config) Artifact {
	cfg.defaults()
	return Artifact{
		Benchmark:        "dprofd-load",
		Provenance:       benchmeta.Collect(),
		Keys:             cfg.Keys,
		ZipfS:            cfg.ZipfS,
		ZipfV:            cfg.ZipfV,
		Concurrency:      cfg.Concurrency,
		RequestsPerPhase: cfg.Requests,
		Phases:           map[string]Result{},
	}
}

// Write lands the artifact as indented JSON.
func (a Artifact) Write(path string) error { return benchmeta.Write(path, a) }
