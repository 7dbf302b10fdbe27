package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	_ "dprof/internal/app/all" // registers the workloads
	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/pprofout"
)

// reportTopology is the paper's 4-socket x 4-core machine (§6.1 ran on a
// 16-core AMD system of four chips).
var reportTopology = map[string]string{"sockets": "4", "cores-per-socket": "4"}

// repeatEvery makes every fourth report repeat the seed of the report two
// before it, so each run checks that a seed reproduces its document byte
// for byte.
const repeatEvery = 4

// profile is one finished report: what `dprof -json` and dprofd produce for
// a session, plus the simulated statistics behind it.
type profile struct {
	doc, pprof []byte
	sess       *core.Session
	stats      cache.Stats
	cycles     uint64
	run        time.Duration // host time inside Session.Run
}

// runReport profiles the §6.1 memcached case study at full fidelity on the
// 4x4 topology, with a fresh seed per profile, along the path `dprof -json`
// and dprofd take: build, session with all five views, Session.Run, the
// canonical document and its JSON encoding, and a pprof export.
func runReport(ctx context.Context, e *env) (*outcome, error) {
	w, err := workload.Lookup("memcached")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x4e90))
	nextSeed := func() string { return strconv.FormatInt(rng.Int64N(1<<31), 10) }

	// Set-up: one complete profile per repetition, which also lets the heap
	// grow to its working size before timing starts.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := profileOnce(nil, 0, w, nextSeed()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var (
		seeds                              []string
		latMs, tracedMs, untracedMs, nsAcc []float64
		bareNsAcc, docBytes, pprofBytes    []float64
		shaBySeed                          = map[string][32]byte{}
		totals                             cache.Stats
		runSecs                            float64
	)
	mem0 := readMem()
	start := time.Now()
	for i := 0; keepGoing(start, e.seconds, latMs); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := nextSeed()
		if i%repeatEvery == repeatEvery-1 {
			seed = seeds[i-2]
		}
		seeds = append(seeds, seed)
		// A traced run records spans on every other report only; the
		// difference between the two halves is the tracing overhead.
		var ptr *tracer
		if i%2 == 0 {
			ptr = tr
		}
		id := uint64(i)

		t0 := time.Now()
		p, err := profileOnce(ptr, id, w, seed)
		d := ms(time.Since(t0))
		o.attempted++
		if err != nil {
			o.failed++
			e.printf("FAIL report seed=%s: %v\n", seed, err)
			continue
		}
		latMs = append(latMs, d)
		if ptr != nil {
			tracedMs = append(tracedMs, d)
		} else {
			untracedMs = append(untracedMs, d)
		}
		runSecs += p.run.Seconds()
		totals.Add(&p.stats)
		nsAcc = append(nsAcc, ratio(float64(p.run.Nanoseconds()), float64(p.stats.Accesses)))
		docBytes = append(docBytes, float64(len(p.doc)))
		pprofBytes = append(pprofBytes, float64(len(p.pprof)))

		sum := sha256.Sum256(p.doc)
		if msg := checkDocument(p.doc); msg != "" {
			o.failed++
			e.printf("FAIL report seed=%s: %s\n", seed, msg)
		} else if prev, ok := shaBySeed[seed]; ok && prev != sum {
			o.failed++
			e.printf("FAIL report seed=%s: document differs from the earlier one with this seed\n", seed)
		}
		shaBySeed[seed] = sum
		e.printf("record: seed=%s accesses=%d cycles=%d doc_sha256=%x pprof_sha256=%x\n",
			seed, p.stats.Accesses, p.cycles, sum, sha256.Sum256(p.pprof))
		if i == 0 {
			o.layer["sim.accesses"] = float64(p.stats.Accesses)
			o.layer["sim.cycles"] = float64(p.cycles)
		}

		if ptr != nil {
			probeViews(ptr, id, p.sess)
			bare, err := bareRun(ptr, id, w, seed)
			if err != nil {
				return nil, err
			}
			bareNsAcc = append(bareNsAcc, bare)
		}
	}
	elapsed := time.Since(start)
	runtimeDelta(o.layer, mem0, readMem())
	o.spans = tr.snapshot()

	l := o.layer
	l["workload.build_ms"] = medianMs(o.spans, "workload.build")
	l["session.attach_ms"] = medianMs(o.spans, "session.attach")
	l["session.run_s"] = medianMs(o.spans, "session.run") / 1000
	l["session.maccess_per_s"] = ratio(float64(totals.Accesses), runSecs) / 1e6
	l["sim.ns_per_access"] = median(nsAcc)
	l["sim.unprofiled_ns_per_access"] = median(bareNsAcc)
	if len(bareNsAcc) > 0 {
		l["profiler.overhead_pct"] = (median(nsAcc)/median(bareNsAcc) - 1) * 100
	}
	acc := float64(totals.Accesses)
	l["cache.l1_hit_ratio"] = ratio(float64(totals.L1Hits), acc)
	l["cache.xfer_ratio"] = ratio(float64(totals.ForeignHits+totals.ForeignRemoteHits), acc)
	l["cache.xchip_ratio"] = ratio(float64(totals.ForeignRemoteHits+totals.DRAMRemoteFills), acc)
	l["cache.inval_per_kacc"] = ratio(float64(totals.InvalsSent), acc/1000)
	l["cache.dram_ratio"] = ratio(float64(totals.DRAMFills+totals.DRAMRemoteFills), acc)
	for _, v := range []string{"dataprofile", "workingset", "residency", "missclass", "dataflow", "pathtrace"} {
		l["view."+v+"_ms"] = medianMs(o.spans, "view."+v)
	}
	l["export.doc_ms"] = medianMs(o.spans, "export.doc")
	l["export.marshal_ms"] = medianMs(o.spans, "export.marshal")
	l["export.doc_bytes"] = median(docBytes)
	l["pprof.encode_ms"] = medianMs(o.spans, "pprof.encode")
	l["pprof.bytes"] = median(pprofBytes)
	if len(tracedMs) > 0 && len(untracedMs) > 0 {
		l["trace.overhead_pct"] = (median(tracedMs)/median(untracedMs) - 1) * 100
	}

	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	sum := summarize(latMs)
	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["op_p50_ms"] = sum.P50
	o.e2e["op_tail_ms"] = sum.Tail
	o.e2e["ops_per_s"] = float64(len(latMs)) / elapsed.Seconds()
	e.printf("setup_s %.4f s (median of %d)\n", o.e2e["setup_s"], len(setups))
	e.printf("peak_rss_mb %.1f MiB\n", rss)
	e.printf("report.p50_s %.4f s, report.tail_s %.4f s (p%.1f, n=%d)\n", sum.P50/1000, sum.Tail/1000, sum.TailPct, sum.N)
	e.printf("sim_maccess_per_s %.4f M/s (%d accesses in %.3f s of Session.Run)\n", l["session.maccess_per_s"], totals.Accesses, runSecs)
	return o, nil
}

// profileOnce builds, runs and renders one memcached profile, recording a
// span around each layer call when tr is non-nil.
func profileOnce(tr *tracer, id uint64, w workload.Workload, seed string) (*profile, error) {
	root := tr.begin(id, "report", -1)
	defer tr.end(root)
	opts := map[string]string{"seed": seed}
	for k, v := range reportTopology {
		opts[k] = v
	}

	sp := tr.begin(id, "workload.build", root)
	cfg, err := workload.NewConfig(w, opts)
	if err != nil {
		return nil, err
	}
	inst, err := workload.BuildInstance(w, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	canon, err := workload.CanonicalOptions(w, opts)
	if err != nil {
		return nil, err
	}

	win := w.Windows(false)
	sp = tr.begin(id, "session.attach", root)
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler:     core.DefaultConfig(),
		Views:        core.KnownViews,
		TypeName:     w.DefaultTarget(),
		Warmup:       win.Warmup,
		Measure:      win.Measure,
		WindowCycles: workload.WindowCycles(cfg),
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	p := &profile{sess: s}
	sp = tr.begin(id, "session.run", root)
	t0 := time.Now()
	s.Run()
	p.run = time.Since(t0)
	tr.end(sp)
	p.stats = inst.Machine().Hier.Totals()
	p.cycles = inst.Machine().MaxCoreTime()

	sp = tr.begin(id, "export.doc", root)
	doc, err := core.BuildProfileDocument(s, core.KnownViews, w.Name(), canon, false)
	if err != nil {
		return nil, err
	}
	doc.Stamp(core.SourceSim, time.Time{})
	tr.end(sp)

	sp = tr.begin(id, "export.marshal", root)
	p.doc, err = json.Marshal(doc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin(id, "pprof.encode", root)
	p.pprof, err = pprofout.EncodeSource(s.Profiler(), pprofout.Meta{Comments: []string{"perfbench: memcached seed " + seed}})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// checkDocument re-parses a document and checks it carries all five views
// ("" when it does).
func checkDocument(raw []byte) string {
	doc, err := core.ParseDocument(raw)
	if err != nil {
		return "document does not re-parse: " + err.Error()
	}
	for _, v := range core.KnownViews {
		if body := doc.Views[v]; len(body) == 0 || string(body) == "null" {
			return fmt.Sprintf("document lacks the %s view", v)
		}
	}
	return ""
}

// probeViews times each view's export, and the residency replay on its
// own, on a finished session. The path-trace memo is dropped first so every
// view pays what it pays inside BuildProfileDocument.
func probeViews(tr *tracer, id uint64, s *core.Session) {
	root := tr.begin(id, "probe.views", -1)
	defer tr.end(root)
	p := s.Profiler()
	p.InvalidateTraceCache()
	for _, v := range core.KnownViews {
		sp := tr.begin(id, "view."+v, root)
		_, _ = core.ExportView(p, v, s.Target()) // errors surface in the document path
		tr.end(sp)
	}
	sp := tr.begin(id, "view.residency", root)
	core.CacheResidencyOf(p, core.DefaultReplayObjects)
	tr.end(sp)
}

// bareRun simulates the same build with no profiler attached and returns
// host nanoseconds per simulated access.
func bareRun(tr *tracer, id uint64, w workload.Workload, seed string) (float64, error) {
	opts := map[string]string{"seed": seed}
	for k, v := range reportTopology {
		opts[k] = v
	}
	cfg, err := workload.NewConfig(w, opts)
	if err != nil {
		return 0, err
	}
	inst, err := workload.BuildInstance(w, cfg)
	if err != nil {
		return 0, err
	}
	win := w.Windows(false)
	sp := tr.begin(id, "bare.run", -1)
	t0 := time.Now()
	inst.Run(win.Warmup, win.Measure)
	d := time.Since(t0)
	tr.end(sp)
	return ratio(float64(d.Nanoseconds()), float64(inst.Machine().Hier.Totals().Accesses)), nil
}
