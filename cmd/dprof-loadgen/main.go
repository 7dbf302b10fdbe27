// Command dprof-loadgen replays a Zipf-distributed profile-request mix
// against one or more dprofd replicas and reports the serving trajectory:
// throughput, p50/p95/p99 latency, and the cache/dedup disposition mix.
//
// The mix is a deterministic deck of distinct workload × options × views
// requests (cheap quick scenarios); ranks draw from a Zipf distribution,
// so a few hot profiles dominate a long tail, the shape a profile-serving
// fleet sees in practice. The loop is closed: -concurrency workers each
// wait for a response before issuing the next request.
//
// Usage:
//
//	dprof-loadgen -targets http://localhost:7071 -n 500
//	dprof-loadgen -targets http://a:7071,http://b:7071,http://c:7071 \
//	              -n 2000 -concurrency 16 -keys 64 -zipf-s 1.2 \
//	              -json load.json -phase multi_replica
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"dprof/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprof-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		targets = fs.String("targets", "", "comma-separated dprofd base URLs (required)")
		n       = fs.Int("n", 200, "total requests")
		conc    = fs.Int("concurrency", 4, "closed-loop workers")
		keys    = fs.Int("keys", 32, "distinct requests in the deck")
		zipfS   = fs.Float64("zipf-s", 1.2, "Zipf skew s (> 1; larger = hotter head)")
		zipfV   = fs.Float64("zipf-v", 1, "Zipf offset v (>= 1)")
		seed    = fs.Int64("seed", 1, "deck + draw seed")
		jsonOut = fs.String("json", "", "write a JSON artifact of the run to this path")
		phase   = fs.String("phase", "run", "phase name for the JSON artifact")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := loadgen.Config{
		Requests:    *n,
		Concurrency: *conc,
		Keys:        *keys,
		ZipfS:       *zipfS,
		ZipfV:       *zipfV,
		Seed:        *seed,
	}
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cfg.Targets = append(cfg.Targets, strings.TrimRight(t, "/"))
		}
	}
	if len(cfg.Targets) == 0 {
		fmt.Fprintln(stderr, "dprof-loadgen: -targets is required")
		return 2
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dprof-loadgen: %v\n", err)
		return 1
	}
	report(stdout, cfg, res)
	if *jsonOut != "" {
		art := loadgen.NewArtifact(cfg)
		art.Phases[*phase] = res
		if err := art.Write(*jsonOut); err != nil {
			fmt.Fprintf(stderr, "dprof-loadgen: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	}
	if res.Errors > 0 || res.Statuses["200"] != res.Requests {
		return 1
	}
	return 0
}

func report(w io.Writer, cfg loadgen.Config, res loadgen.Result) {
	fmt.Fprintf(w, "dprof-loadgen: %d targets, %d keys, zipf s=%g v=%g, %d requests, concurrency %d\n",
		len(cfg.Targets), cfg.Keys, cfg.ZipfS, cfg.ZipfV, res.Requests, cfg.Concurrency)
	fmt.Fprintf(w, "throughput  %.1f req/s  (%d requests, %d errors, %.2fs)\n",
		res.Throughput, res.Requests, res.Errors, res.Seconds)
	fmt.Fprintf(w, "latency ms  p50 %.2f  p95 %.2f  p99 %.2f  mean %.2f  max %.2f\n",
		res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Mean, res.Latency.Max)
	keys := make([]string, 0, len(res.Dispositions))
	for k := range res.Dispositions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "dispositions")
	for _, k := range keys {
		fmt.Fprintf(w, "  %s %d", k, res.Dispositions[k])
	}
	fmt.Fprintln(w)
}
