package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dprof/internal/exp"
)

// goldenQuick is the checked-in reference of every quick experiment's
// Values, relative to the source tree root.
const goldenQuick = "internal/exp/testdata/golden_quick.json"

// paperQuickSet is the fixed subset of the quick paper suite that one
// paper-quick pass runs, in paper order: the §6.1 memcached case study
// (tables 6.1-6.3 and the fix), figure 6.3's object access history
// collection, and the five coherence scenarios. The whole suite takes
// 21-27 s on a 2-vCPU host, so a 30 s run held one pass and its time
// spread by 24-36% between runs; this subset takes 3-4 s, so a run
// reports the median of 6-10 passes. Tables 6.7-6.9 (13 s together)
// run the same collector as figure 6.3 and are left out.
var paperQuickSet = []string{
	"table6.1", "table6.2", "table6.3", "fix-memcached", "figure6.3",
	"falseshare", "conflict", "trueshare", "alienping", "numaremote",
}

// paperQuickSetupReps is how many times paper-quick sets up per run. One
// set-up takes well under a second, so it repeats more often than the
// other workloads' for a steady setup_s median.
const paperQuickSetupReps = 7

// runPaperQuick runs the paperQuickSet experiments through exp.RunAll, as
// `dprof-bench -experiment <set> -quick` does (serial, warm start on), and
// checks each experiment's Values bit for bit against the golden file. The
// suite's inputs are fixed by the goldens, so the seed is unused.
func runPaperQuick(ctx context.Context, e *env) (*outcome, error) {
	opts := exp.Options{Quick: true, Workers: 1, WarmStart: true}

	// Set-up: load the goldens and run the cheapest experiment once, so
	// the heap and the runtime are warm when the measured passes start.
	var want map[string]map[string]float64
	var setups []float64
	for i := 0; i < paperQuickSetupReps; i++ {
		t0 := time.Now()
		raw, err := os.ReadFile(filepath.Join(e.root, goldenQuick))
		if err != nil {
			return nil, err
		}
		want = nil
		if err := json.Unmarshal(raw, &want); err != nil {
			return nil, fmt.Errorf("parse %s: %w", goldenQuick, err)
		}
		if _, err := exp.RunAll(ctx, []string{"table6.1"}, opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	names := paperQuickSet
	var (
		passMs  []float64
		expSecs = map[string][]float64{}
		tr      *tracer
	)
	if e.trace {
		tr = newTracer()
	}
	mem0 := readMem()
	start := time.Now()
	for pass := 0; keepGoing(start, e.seconds, passMs); pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Spans come from the progress events every run consumes, so a
		// traced pass does the same work as an untraced one.
		id := uint64(pass)
		root := tr.begin(id, "suite", -1)
		var mu sync.Mutex
		opts.Progress = func(ev exp.Event) {
			if ev.Kind != exp.EventFinished {
				return
			}
			now := time.Now()
			mu.Lock()
			expSecs[ev.Name] = append(expSecs[ev.Name], ev.Elapsed.Seconds())
			mu.Unlock()
			tr.add(id, "exp."+ev.Name, root, now.Add(-ev.Elapsed), now)
		}
		// Start every pass from a collected heap, so a pass does not pay
		// for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		results, runErr := exp.RunAll(ctx, names, opts)
		d := ms(time.Since(t0))
		tr.end(root)
		passMs = append(passMs, d)

		got := map[string]map[string]float64{}
		o.attempted += len(names)
		for i, n := range names {
			if i < len(results) && results[i].Values != nil {
				got[n] = results[i].Values
			}
			if msg := diffGolden(want[n], got[n]); msg != "" {
				o.failed++
				e.printf("FAIL %s: %s\n", n, msg)
			}
		}
		if runErr != nil {
			e.printf("FAIL suite: %v\n", runErr)
		}
		raw, err := json.Marshal(got)
		if err != nil {
			return nil, err
		}
		e.printf("record: pass=%d suite_values_sha256=%x wall_s=%.4f\n", pass, sha256.Sum256(raw), d/1000)
	}
	elapsed := time.Since(start)
	runtimeDelta(o.layer, mem0, readMem())
	for n, xs := range expSecs {
		o.layer["exp."+n+"_s"] = median(xs)
	}
	o.spans = tr.snapshot()

	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	sum := summarize(passMs)
	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["op_p50_ms"] = sum.P50
	o.e2e["op_tail_ms"] = sum.Tail
	o.e2e["ops_per_s"] = float64(len(passMs)) / elapsed.Seconds()
	e.printf("setup_s %.4f s (median of %d)\n", o.e2e["setup_s"], len(setups))
	e.printf("peak_rss_mb %.1f MiB\n", rss)
	e.printf("suite_s %.4f s per pass: %s ms\n", sum.P50/1000, sum)
	return o, nil
}

// diffGolden describes how got differs from the golden values bit for bit
// ("" when equal).
func diffGolden(want, got map[string]float64) string {
	if want == nil {
		return "experiment missing from " + goldenQuick
	}
	if got == nil {
		return "no result"
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("missing value %q", k)
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			return fmt.Sprintf("%s = %v, golden %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("value %q not in golden", k)
		}
	}
	return ""
}
