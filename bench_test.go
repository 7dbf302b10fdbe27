// Package dprof_test is the benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation (quick configurations — run
// cmd/dprof-bench for the full versions), plus microbenchmarks and the
// ablation benchmarks DESIGN.md calls out (directory vs snoop coherence,
// time-merge vs pairwise path construction, alien caches on the free path).
package dprof_test

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"dprof/internal/app/memcachedsim"
	"dprof/internal/app/workload"
	"dprof/internal/benchmeta"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/exp"
	"dprof/internal/loadgen"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/serve"
	"dprof/internal/sim"
	"dprof/internal/sym"
)

// benchExperiment runs one named experiment per iteration and publishes a
// chosen value as a benchmark metric.
func benchExperiment(b *testing.B, name, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(context.Background(), name, exp.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			b.ReportMetric(r.Values[metric], metric)
		}
	}
}

// benchEngine measures wall clock for a fixed experiment subset at a given
// worker count; comparing Workers=1 against Workers=N shows the parallel
// engine's speedup on multi-core runners.
func benchEngine(b *testing.B, workers int) {
	names := []string{"table6.1", "figure6.1", "table6.2", "table6.3"}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(context.Background(), names, exp.Options{Quick: true, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSerial(b *testing.B)   { benchEngine(b, 1) }
func BenchmarkEngineParallel(b *testing.B) { benchEngine(b, 0) }

// --- one benchmark per paper table/figure ---

func BenchmarkTable61(b *testing.B)  { benchExperiment(b, "table6.1", "size-1024_misspct") }
func BenchmarkFigure61(b *testing.B) { benchExperiment(b, "figure6.1", "cross_cpu_edges") }
func BenchmarkTable62(b *testing.B)  { benchExperiment(b, "table6.2", "Qdisc_lock_overhead_pct") }
func BenchmarkTable63(b *testing.B)  { benchExperiment(b, "table6.3", "functions_over_1pct") }
func BenchmarkMemcachedFix(b *testing.B) {
	benchExperiment(b, "fix-memcached", "speedup")
}
func BenchmarkTable64(b *testing.B) { benchExperiment(b, "table6.4", "tcp_sock_misspct") }
func BenchmarkTable65(b *testing.B) { benchExperiment(b, "table6.5", "tcp_sock_ws_growth") }
func BenchmarkTable66(b *testing.B) { benchExperiment(b, "table6.6", "futex_lock_overhead_pct") }
func BenchmarkApacheFix(b *testing.B) {
	benchExperiment(b, "fix-apache", "speedup")
}
func BenchmarkFigure62(b *testing.B) { benchExperiment(b, "figure6.2", "memcached_max") }
func BenchmarkTable67(b *testing.B)  { benchExperiment(b, "table6.7", "apache_size-1024_overhead_pct") }
func BenchmarkTable68(b *testing.B)  { benchExperiment(b, "table6.8", "apache_size-1024_hist_per_sec") }
func BenchmarkTable69(b *testing.B)  { benchExperiment(b, "table6.9", "size-1024_communication_pct") }
func BenchmarkFigure63(b *testing.B) { benchExperiment(b, "figure6.3", "baseline_paths") }
func BenchmarkTable610(b *testing.B) {
	benchExperiment(b, "table6.10", "memcached_size-1024_histories")
}

// --- the contention-scenario experiments (registry workloads) ---

func BenchmarkFalseshareScenario(b *testing.B) { benchExperiment(b, "falseshare", "speedup") }
func BenchmarkConflictScenario(b *testing.B)   { benchExperiment(b, "conflict", "speedup") }

// BenchmarkTrueshareScenario baselines the new lock-contention scenario: the
// speedup metric is the partitioning fix's gain over shared buckets.
func BenchmarkTrueshareScenario(b *testing.B) { benchExperiment(b, "trueshare", "speedup") }

// BenchmarkAlienPingScenario baselines the new remote-free scenario: the
// speedup metric is the local-free fix's gain over alien-cache drains.
func BenchmarkAlienPingScenario(b *testing.B) { benchExperiment(b, "alienping", "speedup") }

// benchScenarioRun measures one unprofiled scenario run through the
// registry (simulator throughput, no profiling overhead).
func benchScenarioRun(b *testing.B, name string, opts map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		inst := workload.MustBuild(name, opts)
		r := inst.Run(250_000, 1_500_000)
		b.ReportMetric(r.Values["throughput"], "sim_tput")
	}
}

func BenchmarkTrueshareRun(b *testing.B) { benchScenarioRun(b, "trueshare", nil) }
func BenchmarkAlienPingRun(b *testing.B) { benchScenarioRun(b, "alienping", nil) }

// --- NUMA topology: the same workload on a flat 1x16 machine vs the
// paper's 4x4 multi-socket layout, so BENCH_*.json tracks the socket-aware
// coherence hot path. The numaremote experiment bench tracks the fix.

func topo(sockets, cps int) map[string]string {
	return map[string]string{
		"sockets":          strconv.Itoa(sockets),
		"cores-per-socket": strconv.Itoa(cps),
	}
}

// The numaremote pair holds the consumer count fixed at 3 on both layouts
// (the 4x4 default is one consumer on each of the three non-producer chips;
// single-socket placement needs threads-per-socket 3 to match), so the
// benchmark isolates the NUMA cost rather than consumer parallelism.
func BenchmarkNumaRemoteRun1x16(b *testing.B) {
	opts := topo(1, 16)
	opts["threads-per-socket"] = "3"
	benchScenarioRun(b, "numaremote", opts)
}
func BenchmarkNumaRemoteRun4x4(b *testing.B) { benchScenarioRun(b, "numaremote", topo(4, 4)) }
func BenchmarkMemcachedRun1x16(b *testing.B) { benchScenarioRun(b, "memcached", topo(1, 16)) }
func BenchmarkMemcachedRun4x4(b *testing.B)  { benchScenarioRun(b, "memcached", topo(4, 4)) }

// --- windowed collection overhead: the same profiled memcached session
// monolithic (one window) vs split into 1 ms windows with a data-profile
// snapshot at every boundary, on both the flat and the paper topologies —
// the cost of the streaming pipeline's boundary merges and snapshots.

func benchWindowedSession(b *testing.B, opts map[string]string, windowCycles uint64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		inst := workload.MustBuild("memcached", opts)
		s, err := core.NewSession(inst, core.SessionConfig{
			Profiler:     core.DefaultConfig(),
			Views:        []string{"dataprofile"},
			Warmup:       250_000,
			Measure:      4_000_000,
			WindowCycles: windowCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		b.ReportMetric(float64(len(s.Windows())), "windows")
	}
}

func BenchmarkWindowedMemcached1x16Mono(b *testing.B) {
	benchWindowedSession(b, topo(1, 16), 0)
}
func BenchmarkWindowedMemcached1x16Windowed(b *testing.B) {
	benchWindowedSession(b, topo(1, 16), 1_000_000)
}
func BenchmarkWindowedMemcached4x4Mono(b *testing.B) {
	benchWindowedSession(b, topo(4, 4), 0)
}
func BenchmarkWindowedMemcached4x4Windowed(b *testing.B) {
	benchWindowedSession(b, topo(4, 4), 1_000_000)
}

// BenchmarkNumaRemoteScenario baselines the numaremote experiment: the
// speedup metric is node-local allocation's gain over cross-chip pulls.
func BenchmarkNumaRemoteScenario(b *testing.B) { benchExperiment(b, "numaremote", "speedup") }

// --- dprofd: cached-profile request throughput ---

// BenchmarkServeCachedProfile measures the dprofd hot path: a POST /profile
// whose content address is already resident, i.e. full HTTP round trip plus
// LRU lookup but no simulation. This is the request rate the service
// sustains once a profile is warm — the serving-layer overhead.
func BenchmarkServeCachedProfile(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	post := func() int {
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := post(); code != 200 { // warm the cache: one real simulation
		b.Fatalf("warmup status %d", code)
	}
	if n := s.Simulations(); n != 1 {
		b.Fatalf("warmup ran %d simulations", n)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if code := post(); code != 200 {
				b.Fatal("cached request failed")
			}
		}
	})
	b.StopTimer()
	if n := s.Simulations(); n != 1 {
		b.Fatalf("cached requests triggered %d extra simulations", n-1)
	}
}

// BenchmarkServeDiskWarmProfile measures the restart-warm path: the LRU is
// too small to retain both hot documents (capacity 1, two addresses
// alternating), so every request reads the document off the disk store —
// full HTTP round trip plus store checksum-verify, zero simulation. This
// is the floor a restarted replica serves at before its LRU re-warms.
func BenchmarkServeDiskWarmProfile(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Quick: true, CacheEntries: 1, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := []string{
		`{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
		`{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
	}
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		return resp.StatusCode
	}
	for _, body := range bodies { // warm the disk: one simulation each
		if code := post(body); code != 200 {
			b.Fatalf("warmup status %d", code)
		}
	}
	warmed := s.Simulations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(bodies[i%2]); code != 200 {
			b.Fatal("disk-warm request failed")
		}
	}
	b.StopTimer()
	if n := s.Simulations(); n != warmed {
		b.Fatalf("disk-warm requests triggered %d extra simulations", n-warmed)
	}
}

// --- ablation: directory vs snoop coherence lookup ---

func benchCoherence(b *testing.B, snoop bool) {
	cfg := cache.DefaultConfig()
	cfg.Snoop = snoop
	h := cache.New(cfg, 16)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%16, addrs[i%len(addrs)], i%3 == 0)
	}
}

// BenchmarkCoherenceDirectory measures the default O(1) directory MESI.
func BenchmarkCoherenceDirectory(b *testing.B) { benchCoherence(b, false) }

// BenchmarkCoherenceSnoop measures the scan-all-caches alternative; the
// results are identical (tested by TestQuickSnoopEquivalence) but the
// directory is what keeps 16-core simulations fast.
func BenchmarkCoherenceSnoop(b *testing.B) { benchCoherence(b, true) }

// --- ablation: alien caches on the remote-free path ---

func benchRemoteFree(b *testing.B, alienCap int) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 2
	m := sim.New(scfg)
	mcfg := mem.DefaultConfig()
	mcfg.AlienCap = alienCap
	a := mem.New(mcfg, 2, lockstat.NewRegistry())
	typ := a.RegisterType("obj", 256, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr uint64
		m.Schedule(0, m.MaxCoreTime(), func(c *sim.Ctx) { addr = a.Alloc(c, typ) })
		m.RunAll()
		m.Schedule(1, m.MaxCoreTime(), func(c *sim.Ctx) { a.Free(c, addr) })
		m.RunAll()
	}
}

// BenchmarkRemoteFreeBatched uses the default alien-cache batching.
func BenchmarkRemoteFreeBatched(b *testing.B) { benchRemoteFree(b, mem.DefaultConfig().AlienCap) }

// BenchmarkRemoteFreeUnbatched drains on every remote free (alien cap 1):
// the pool lock and slab bookkeeping are touched per object.
func BenchmarkRemoteFreeUnbatched(b *testing.B) { benchRemoteFree(b, 1) }

// --- ablation: path construction from histories (time-merge is the default;
// pairwise adds link evidence and quadratically more histories) ---

func makeHistories(typ *core.TypeDesc, n int, pairwise bool) []*core.History {
	var out []*core.History
	fns := []sym.PC{sym.Intern("rx"), sym.Intern("tx"), sym.Intern("free_path")}
	for i := 0; i < n; i++ {
		offsets := []uint32{uint32(i%4) * 8}
		if pairwise {
			offsets = []uint32{uint32(i%4) * 8, uint32((i+1)%4) * 8}
		}
		h := &core.History{
			Type: typ, Offsets: offsets, WatchLen: 8, Set: i / 4,
			AllocCore: 0, Lifetime: 1000,
		}
		for j, off := range offsets {
			h.Elems = append(h.Elems, core.HistElem{
				Offset: off, IP: fns[(i+j)%3], CPU: int32(j % 2), Time: uint64(10 + j*100),
			})
		}
		out = append(out, h)
	}
	return out
}

func benchPathTraces(b *testing.B, pairwise bool) {
	typ := &core.TypeDesc{Name: "bench", Size: 32, ObjSize: 32}
	hists := makeHistories(typ, 256, pairwise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildPathTraces(typ, hists, nil)
	}
}

func BenchmarkPathTracesTimeMerge(b *testing.B) { benchPathTraces(b, false) }
func BenchmarkPathTracesPairwise(b *testing.B)  { benchPathTraces(b, true) }

// --- microbenchmarks of the substrate hot paths ---

func BenchmarkSimAccess(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%4096)*64, 8)
	}
}

// BenchmarkSimAccessHooked measures the access path with a profiler-style
// hook attached — the configuration every experiment runs under. The hook
// dispatch must not allocate (the scratch AccessEvent is reused per core).
func BenchmarkSimAccessHooked(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	var seen uint64
	m.AddAccessHook(func(c *sim.Ctx, ev *sim.AccessEvent) { seen += uint64(ev.Latency) })
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%4096)*64, 8)
	}
	if seen == 0 {
		b.Fatal("hook never ran")
	}
}

func BenchmarkAllocFree(b *testing.B) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	a := mem.New(mem.DefaultConfig(), 1, lockstat.NewRegistry())
	typ := a.RegisterType("micro", 256, "")
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(c, a.Alloc(c, typ))
	}
}

// BenchmarkMemcachedSteadyState measures the simulator's throughput in
// simulated requests per wall second for the headline workload.
func BenchmarkMemcachedSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := memcachedsim.DefaultConfig()
		cfg.Kern.LocalTxQueue = true
		bench := memcachedsim.New(cfg)
		st := bench.Run(500_000, 2_000_000)
		b.ReportMetric(float64(st.Completed), "requests")
	}
}

// --- machine-readable bench results ---

// warmstartArtifact is the BENCH_warmstart.json schema: wall clock cold vs
// warm-start fork mode for two shapes. The engine suite measures the paper
// experiments as they ship (fork savings bounded by each experiment's
// warmup share); the measure family measures dprofd's serving pattern — one
// warmup, many requests differing only in measured length — where the
// warmup amortizes across every fork.
type warmstartArtifact struct {
	Benchmark string `json:"benchmark"`
	benchmeta.Provenance
	Iterations          int                `json:"iterations"`
	EngineExperiments   []string           `json:"engine_experiments"`
	FamilyWarmupCycles  uint64             `json:"family_warmup_cycles"`
	FamilyMeasureCycles uint64             `json:"family_measure_cycles"`
	FamilyForks         int                `json:"family_forks"`
	WallSeconds         map[string]float64 `json:"wall_seconds"`
	Speedups            map[string]float64 `json:"speedups"`
}

// TestWriteWarmstartBenchArtifact times the engine suite cold and in
// warm-start fork mode (byte-identical output, proven by the equivalence
// suites) and writes BENCH_warmstart.json at the repo root. Like the other
// artifact writers it is a bench-harness entry point; ordinary test runs
// skip it. Enable with:
//
//	DPROF_BENCH_JSON=1 go test -run TestWriteWarmstartBenchArtifact -count=1 .
func TestWriteWarmstartBenchArtifact(t *testing.T) {
	if os.Getenv("DPROF_BENCH_JSON") == "" {
		t.Skip("set DPROF_BENCH_JSON=1 to measure and write BENCH_warmstart.json")
	}
	const iters = 5
	// Experiments with warm-key overlap: table6.1/figure6.1/ext-oracle share
	// one memcached warmup, table6.2 shares with fix-memcached's default
	// side, and the scenario diffs fork each broken/fixed warmup once per
	// side. Workers=1 keeps the measurement a serial wall clock.
	names := []string{"table6.1", "figure6.1", "ext-oracle", "table6.2", "fix-memcached", "diff-falseshare"}
	runSuite := func(warm bool) {
		if _, err := exp.RunAll(context.Background(), names, exp.Options{Quick: true, Workers: 1, WarmStart: warm}); err != nil {
			t.Fatal(err)
		}
	}
	// The measure family: one long warmup, then forks of short measured
	// phases — a dprofd checkpoint-pool hit pattern, where cold serving
	// would replay the warmup for every request.
	const (
		famWarmup  = 1_000_000
		famMeasure = 250_000
		famForks   = 8
	)
	famSession := func() *core.Session {
		s, err := core.NewSession(workload.MustBuild("memcached", nil), core.SessionConfig{
			Profiler: core.DefaultConfig(),
			Views:    []string{"dataprofile"},
			Warmup:   famWarmup,
			Measure:  famMeasure,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	famCold := func() {
		for i := 0; i < famForks; i++ {
			famSession().Run()
		}
	}
	famFork := func() {
		cp, err := famSession().Warmup()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < famForks; i++ {
			cp.Fork(famMeasure)
		}
	}

	// Interleave the cold and fork runs so both minimums share machine
	// state: a background load shift hits both sides alike.
	wall := map[string]float64{}
	timed := func(key string, f func()) {
		start := time.Now()
		f()
		if s := time.Since(start).Seconds(); wall[key] == 0 || s < wall[key] {
			wall[key] = s
		}
	}
	for i := 0; i < iters; i++ {
		timed("cold", func() { runSuite(false) })
		timed("warm_fork", func() { runSuite(true) })
		timed("family_cold", famCold)
		timed("family_fork", famFork)
	}
	art := warmstartArtifact{
		Benchmark:           "warmstart-fork",
		Provenance:          benchmeta.Collect(),
		Iterations:          iters,
		EngineExperiments:   names,
		FamilyWarmupCycles:  famWarmup,
		FamilyMeasureCycles: famMeasure,
		FamilyForks:         famForks,
		WallSeconds:         wall,
		Speedups: map[string]float64{
			"engine_suite":   wall["cold"] / wall["warm_fork"],
			"measure_family": wall["family_cold"] / wall["family_fork"],
		},
	}
	if err := benchmeta.Write("BENCH_warmstart.json", art); err != nil {
		t.Fatal(err)
	}
	t.Logf("engine suite warm-start fork speedup: %.2fx (%.2fs -> %.2fs)",
		art.Speedups["engine_suite"], wall["cold"], wall["warm_fork"])
	t.Logf("measure family (%d forks) speedup: %.2fx (%.2fs -> %.2fs)",
		famForks, art.Speedups["measure_family"], wall["family_cold"], wall["family_fork"])
}

// TestWriteDprofdLoadBenchArtifact drives the Zipf load harness through the
// three serving regimes — cold single replica (every distinct key simulates
// once), warm restart (same store directory, zero simulation work), and a
// three-replica consistent-hash fleet — and writes BENCH_dprofd_load.json at
// the repo root. Like TestWriteWarmstartBenchArtifact, it is the bench-harness
// entry point; ordinary test runs skip it. Enable with:
//
//	DPROF_BENCH_JSON=1 go test -run TestWriteDprofdLoadBenchArtifact -count=1 .
func TestWriteDprofdLoadBenchArtifact(t *testing.T) {
	if os.Getenv("DPROF_BENCH_JSON") == "" {
		t.Skip("set DPROF_BENCH_JSON=1 to measure and write BENCH_dprofd_load.json")
	}
	cfg := loadgen.Config{
		Requests:    120,
		Concurrency: 8,
		Keys:        24,
		ZipfS:       1.2,
		ZipfV:       1,
		Seed:        7,
	}
	storeDir := t.TempDir()
	ctx := context.Background()
	art := loadgen.NewArtifact(cfg)

	// Phase 1: cold — empty LRU, empty store; the Zipf head warms fast but
	// every distinct key pays one simulation.
	{
		s, err := serve.New(serve.Config{Workers: 2, Quick: true, StoreDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		cfg.Targets = []string{ts.URL}
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		art.Phases["cold"] = res
		t.Logf("cold: %.1f req/s, %d simulations", res.Throughput, s.Simulations())
		// Backfill the deck tail: Zipf draws may skip a few cold keys, so
		// touch every entry once to make the store fully resident before
		// the warm phase asserts zero simulation work.
		for _, req := range loadgen.Deck(cfg.Keys, cfg.Seed) {
			resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(string(req.Body)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ts.Close()
		s.Shutdown()
	}

	// Phase 2: warm restart — a fresh process on the same store directory.
	// Every document is already on disk, so the whole run must complete
	// with zero simulation work (the acceptance criterion for the store).
	{
		s, err := serve.New(serve.Config{Workers: 2, Quick: true, StoreDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		cfg.Targets = []string{ts.URL}
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Simulations(); n != 0 {
			t.Fatalf("warm phase ran %d simulations; want 0 (store misses)", n)
		}
		art.Phases["warm"] = res
		t.Logf("warm: %.1f req/s, 0 simulations", res.Throughput)
		ts.Close()
		s.Shutdown()
	}

	// Phase 3: multi_replica — three fresh replicas in a consistent-hash
	// ring, empty stores; routing concentrates each key on its owner, so
	// fleet-wide simulations stay at one per distinct key.
	{
		const n = 3
		servers := make([]*serve.Server, n)
		tss := make([]*httptest.Server, n)
		urls := make([]string, n)
		for i := range servers {
			s, err := serve.New(serve.Config{Workers: 2, Quick: true, StoreDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			servers[i] = s
			tss[i] = httptest.NewServer(s.Handler())
			urls[i] = tss[i].URL
		}
		for i, s := range servers {
			if err := s.SetPeers(urls[i], urls); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Targets = urls
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sims int64
		for _, s := range servers {
			sims += s.Simulations()
		}
		art.Phases["multi_replica"] = res
		t.Logf("multi_replica: %.1f req/s, %d fleet simulations", res.Throughput, sims)
		for i := range servers {
			tss[i].Close()
			servers[i].Shutdown()
		}
	}

	if err := art.Write("BENCH_dprofd_load.json"); err != nil {
		t.Fatal(err)
	}
}

// hotpathScenario is one row of the hot-path artifact: how many simulated
// memory accesses the scenario retired and the wall cost per access.
type hotpathScenario struct {
	Accesses       uint64  `json:"accesses"`
	WallSeconds    float64 `json:"wall_seconds"`
	NsPerAccess    float64 `json:"ns_per_access"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
}

// hotpathArtifact is the BENCH_hotpath.json schema: the engine-benchmark
// wall clock optimized vs the retained reference paths (access counts are
// invariant between the modes — the equivalence suite proves byte identity
// — so the wall ratio IS the accesses/sec speedup), per-scenario ns/access
// rows, and the serving layer's cold-phase load throughput.
//
// The reference mode retains only the pre-PR *dispatch* semantics; the
// cache-internal structural work (packed ways, fused directory probes, the
// L3 presence table) applies in both modes, so engine_speedup understates
// the gain over the pre-PR tree. engine_pre_pr_speedup is the honest
// headline: the same engine subset, same flags, same Go toolchain, run
// through a binary built from the pre-PR commit on the same host. The
// harness points DPROF_PRE_PR_BIN at that binary (and names its commit in
// DPROF_PRE_PR_COMMIT); the test interleaves its runs with the optimized
// in-process runs so both minimums share machine state.
type hotpathArtifact struct {
	Benchmark string `json:"benchmark"`
	benchmeta.Provenance
	Iterations         int                        `json:"iterations"`
	EngineExperiments  []string                   `json:"engine_experiments"`
	EngineWallSeconds  map[string]float64         `json:"engine_wall_seconds"`
	EngineSpeedup      float64                    `json:"engine_speedup"`
	EnginePrePRSpeedup float64                    `json:"engine_pre_pr_speedup,omitempty"`
	Scenarios          map[string]hotpathScenario `json:"scenarios"`
	LoadgenColdRPS     float64                    `json:"loadgen_cold_throughput_rps"`
}

// TestWriteHotpathBenchArtifact measures the simulator hot paths (MRU fast
// path, armed hook dispatch, bypass-slot event wheel) against the retained
// reference paths and writes BENCH_hotpath.json at the repo root. Like the
// other artifact writers it is a bench-harness entry point; ordinary test
// runs skip it. Enable with:
//
//	DPROF_BENCH_JSON=1 go test -run TestWriteHotpathBenchArtifact -count=1 .
//
// It must not run in parallel with other tests: the reference half flips
// the package-global default mode for machines built inside the engine.
func TestWriteHotpathBenchArtifact(t *testing.T) {
	if os.Getenv("DPROF_BENCH_JSON") == "" {
		t.Skip("set DPROF_BENCH_JSON=1 to measure and write BENCH_hotpath.json")
	}
	const iters = 5
	minOf := func(run func()) float64 {
		best := math.Inf(1) // min-of-N: the least-disturbed measurement
		for i := 0; i < iters; i++ {
			start := time.Now()
			run()
			if s := time.Since(start).Seconds(); s < best {
				best = s
			}
		}
		return best
	}

	// Engine benchmarks, both modes. Workers=1 keeps the measurement a
	// serial wall clock rather than a scheduling artifact.
	engineNames := []string{"table6.1", "figure6.1", "table6.2", "table6.3"}
	runEngine := func() {
		if _, err := exp.RunAll(context.Background(), engineNames, exp.Options{Quick: true, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-PR comparison: DPROF_PRE_PR_BIN names a dprof binary built from
	// the pre-PR commit with the same toolchain. Its runs are interleaved
	// with the optimized in-process runs so both sides see the same machine
	// state — background load shifts hit both mins alike, which a number
	// measured minutes apart would not guarantee.
	var wallOpt, wallPre float64
	if bin := os.Getenv("DPROF_PRE_PR_BIN"); bin != "" {
		wallOpt, wallPre = math.Inf(1), math.Inf(1)
		preArgs := []string{"-experiment", strings.Join(engineNames, ","), "-quick", "-parallel", "1"}
		for i := 0; i < iters; i++ {
			start := time.Now()
			cmd := exec.Command(bin, preArgs...)
			cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
			if err := cmd.Run(); err != nil {
				t.Fatalf("pre-PR binary %s: %v", bin, err)
			}
			if s := time.Since(start).Seconds(); s < wallPre {
				wallPre = s
			}
			start = time.Now()
			runEngine()
			if s := time.Since(start).Seconds(); s < wallOpt {
				wallOpt = s
			}
		}
	} else {
		wallOpt = minOf(runEngine)
	}
	sim.SetDefaultReference(true)
	wallRef := minOf(runEngine)
	sim.SetDefaultReference(false)

	// Per-scenario ns/access: retired accesses over the whole run (warmup
	// included — both phases exercise the same hot path) divided into the
	// run's wall clock.
	countAccesses := func(inst core.Runnable) uint64 {
		m := inst.Machine()
		var n uint64
		for i := 0; i < m.NumCores(); i++ {
			n += m.Core(i).Retired()
		}
		return n
	}
	const warmup, measure = 250_000, 1_500_000
	scenario := func(build func() core.Runnable, profiled bool) hotpathScenario {
		var accesses uint64
		wall := minOf(func() {
			inst := build()
			if profiled {
				s, err := core.NewSession(inst, core.SessionConfig{
					Profiler: core.DefaultConfig(),
					Views:    []string{"dataprofile"},
					Warmup:   warmup,
					Measure:  measure,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
			} else {
				inst.Run(warmup, measure)
			}
			accesses = countAccesses(inst)
		})
		if accesses == 0 {
			t.Fatal("scenario retired no accesses")
		}
		return hotpathScenario{
			Accesses:       accesses,
			WallSeconds:    wall,
			NsPerAccess:    wall * 1e9 / float64(accesses),
			AccessesPerSec: float64(accesses) / wall,
		}
	}
	scenarios := map[string]hotpathScenario{
		"memcached_4x4_monolithic": scenario(func() core.Runnable {
			return workload.MustBuild("memcached", topo(4, 4))
		}, false),
		"memcached_4x4_profiled": scenario(func() core.Runnable {
			return workload.MustBuild("memcached", topo(4, 4))
		}, true),
	}

	// Cold-phase loadgen throughput: a fresh server, every distinct key
	// simulating once — the serving regime the hot paths speed up most.
	var coldRPS float64
	{
		s, err := serve.New(serve.Config{Workers: 2, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Targets:     []string{ts.URL},
			Requests:    60,
			Concurrency: 4,
			Keys:        12,
			Seed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		coldRPS = res.Throughput
		ts.Close()
		s.Shutdown()
	}

	engineWall := map[string]float64{"optimized": wallOpt, "reference": wallRef}
	art := hotpathArtifact{
		Benchmark:         "simulator-hotpath",
		Provenance:        benchmeta.Collect(),
		Iterations:        iters,
		EngineExperiments: engineNames,
		EngineWallSeconds: engineWall,
		EngineSpeedup:     wallRef / wallOpt,
		Scenarios:         scenarios,
		LoadgenColdRPS:    coldRPS,
	}
	if wallPre != 0 && !math.IsInf(wallPre, 1) {
		engineWall["pre_pr"] = wallPre
		art.EnginePrePRSpeedup = wallPre / wallOpt
	}
	if err := benchmeta.Write("BENCH_hotpath.json", art); err != nil {
		t.Fatal(err)
	}
	t.Logf("engine speedup optimized vs reference: %.2fx (%.2fs -> %.2fs)",
		art.EngineSpeedup, wallRef, wallOpt)
	if art.EnginePrePRSpeedup != 0 {
		t.Logf("engine speedup vs pre-PR binary %s: %.2fx (%.2fs -> %.2fs)",
			art.PrePRCommit, art.EnginePrePRSpeedup, engineWall["pre_pr"], wallOpt)
	}
	for name, sc := range scenarios {
		t.Logf("%s: %.1f ns/access (%.2fM accesses/s)", name, sc.NsPerAccess, sc.AccessesPerSec/1e6)
	}
}
