// Command dprof runs a registered workload on the simulated machine under
// the DProf profiler and prints the requested views, optionally alongside
// the lock-stat and OProfile baselines the paper compares against.
//
// Workloads come from the internal/app/workload registry; -list-workloads
// prints the registered set with each workload's options. Workload-specific
// flags (e.g. -fix, -offered) are rejected unless the selected workload
// declares them, and every flag is rejected in a mode that would ignore it
// (-rate with -experiment, -parallel with -workload, ...).
//
// Usage:
//
//	dprof -list-workloads
//	dprof -workload memcached -views dataprofile,dataflow -type skbuff
//	dprof -workload memcached -fix            # with the local-TX-queue fix
//	dprof -workload apache -offered 110000    # past the drop-off
//	dprof -workload falseshare -views missclass -rate 100000
//	dprof -workload trueshare -lockstat
//	dprof -workload alienping -views dataprofile,dataflow
//	dprof -workload numaremote -views dataprofile,missclass    # 4x4 NUMA topology
//	dprof -workload numaremote -sockets 1 -cores-per-socket 16 # flatten it
//	dprof -workload numaremote -sweep-topology 1x16,2x8,4x4    # compare layouts
//	dprof -workload memcached -window-ms 2                     # windowed profiling
//	dprof -workload falseshare -json > broken.json             # stable JSON (dprofd format)
//	dprof -workload falseshare -padded -diff broken.json       # rank what the fix changed
//	dprof -workload falseshare -cpuprofile cpu.pprof -memprofile heap.pprof
//
// The paper's tables and figures regenerate through the experiment engine;
// progress streams to stderr, and each result prints in request order with
// its machine-readable values (dprof -h lists the experiment names):
//
//	dprof -experiment all                        # everything, paper order
//	dprof -experiment all -parallel 0            # ... across all cores
//	dprof -experiment table6.1,table6.2 -quick   # a subset, reduced fidelity
//
// Real-hardware profiles ingest through -input and export through -pprof:
//
//	dprof -input mem.perf.data                        # all views over a perf capture
//	dprof -input mem.perf.data -json > real.json      # same document format as -json
//	dprof -workload falseshare -diff real.json        # diff sim vs real
//	dprof -input mem.perf.data -pprof out.pb.gz       # go tool pprof -top out.pb.gz
//	dprof -workload memcached -pprof sim.pb.gz        # sim profile as pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/exp"
	"dprof/internal/perfin"
	"dprof/internal/pprofout"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "memcached", "workload to run; one of: "+strings.Join(workload.Names(), ", "))
		views        = fs.String("views", "dataprofile", "comma list: "+strings.Join(core.KnownViews, ","))
		typeName     = fs.String("type", "", "type for dataflow/pathtrace views (default: the workload's natural target)")
		sets         = fs.Int("sets", 2, "history sets to collect for dataflow/pathtrace")
		rate         = fs.Float64("rate", 8000, "IBS samples/s/core")
		measure      = fs.Uint64("measure-ms", 12, "measured window, simulated milliseconds")
		withLS       = fs.Bool("lockstat", false, "also print the lock-stat baseline")
		withOP       = fs.Bool("oprofile", false, "also print the OProfile baseline")
		jsonOut      = fs.Bool("json", false, "emit the profile as stable JSON (the same document dprofd's POST /profile returns)")
		diffPath     = fs.String("diff", "", "diff this run against a saved -json profile (file = baseline A, this run = B) and print the ranked per-type deltas")
		list         = fs.Bool("list-workloads", false, "list registered workloads and their options")
		sweep        = fs.String("sweep-topology", "", "comma list of SOCKETSxCORES layouts (e.g. 1x16,2x8,4x4): run the workload unprofiled on each topology and compare")
		experiment   = fs.String("experiment", "", "run paper experiments instead of a workload: 'all' or a comma list of: "+strings.Join(exp.Names(), ", "))
		quick        = fs.Bool("quick", false, "experiment mode: smaller workloads")
		parallel     = fs.Int("parallel", 1, "experiment mode: experiments to run concurrently (0 = all cores)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of this run to the given file (go tool pprof)")
		memProfile   = fs.String("memprofile", "", "write a heap profile at exit to the given file (go tool pprof)")
		inputPath    = fs.String("input", "", "ingest a perf.data file (perf mem record) instead of running a workload; views, -type, -json, -diff, and -pprof apply to the ingested profile")
		pprofOut     = fs.String("pprof", "", "also export the profile (simulated or ingested) as a gzipped pprof protobuf to the given file")
	)
	optValues := workload.RegisterFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of dprof:")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nFor a long-running HTTP profiling service (cached, deduplicated sessions\nover the same registry), see cmd/dprofd.")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode := "-workload"
	switch {
	case *list:
		mode = "-list-workloads"
	case *inputPath != "":
		mode = "-input"
	case *experiment != "":
		mode = "-experiment"
	case *sweep != "":
		mode = "-sweep-topology"
	}
	// Only options the user explicitly set are passed on, so every workload
	// sees its own defaults — and options the selected workload does not
	// declare are rejected instead of silently ignored.
	setOpts := optValues.Explicit(fs)
	if ignored := ignoredFlags(fs, mode, setOpts); len(ignored) > 0 {
		fmt.Fprintf(stderr, "dprof: %s ignores %s; it reads %s\n",
			mode, strings.Join(ignored, ", "), strings.Join(modeUsage(mode), ", "))
		return 2
	}

	// Self-profiling: the simulator is CPU-bound, so its own hot paths are
	// tuned with the same tooling it models. The CPU profile covers the
	// whole run; the heap profile snapshots live objects at exit.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 2
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "dprof: writing heap profile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		writeWorkloadList(stdout)
		return 0
	}

	// Ingestion mode: the profile comes from a perf.data capture instead of
	// a simulated workload; the analysis stack downstream is identical.
	if *inputPath != "" {
		return runIngest(stdout, stderr, *inputPath, *views, *typeName, *jsonOut, *diffPath, *pprofOut)
	}

	if *experiment != "" {
		return runExperiments(ctx, stdout, stderr, *experiment, *quick, *parallel)
	}

	w, err := workload.Lookup(*workloadName)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}

	if *sweep != "" {
		return runTopologySweep(stdout, stderr, w, setOpts, *sweep, *measure)
	}

	cfg, err := workload.NewConfig(w, setOpts)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}
	inst, err := w.Build(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: building %s: %v\n", w.Name(), err)
		return 1
	}

	var viewList []string
	needTarget := *typeName != "" // an explicit -type is always validated and collected
	for _, v := range strings.Split(*views, ",") {
		if v = strings.TrimSpace(v); v != "" {
			viewList = append(viewList, v)
			needTarget = needTarget || v == "dataflow" || v == "pathtrace"
		}
	}
	if *diffPath != "" && !slices.Contains(viewList, "dataprofile") {
		// The diff runs on the data profile view; render it even when the
		// user asked for other views.
		viewList = append([]string{"dataprofile"}, viewList...)
	}

	pcfg := core.DefaultConfig()
	pcfg.SampleRate = *rate
	scfg := core.SessionConfig{
		Profiler:     pcfg,
		Views:        viewList,
		Sets:         *sets,
		LockStat:     *withLS,
		OProfile:     *withOP,
		Warmup:       w.Windows(false).Warmup,
		Measure:      *measure * 1_000_000,
		WindowCycles: workload.WindowCycles(cfg),
	}
	if needTarget {
		scfg.TypeName = *typeName
		if scfg.TypeName == "" {
			scfg.TypeName = w.DefaultTarget()
		}
	}
	s, err := core.NewSession(inst, scfg)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}

	if *jsonOut || *diffPath != "" {
		s.Run()
		if !writePprof(stderr, *pprofOut, s.Profiler(), "dprof: workload "+w.Name()) {
			return 1
		}
		canon, err := workload.CanonicalOptions(w, setOpts)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err) // unreachable: setOpts already validated
			return 2
		}
		doc, err := core.BuildProfileDocument(s, viewList, w.Name(), canon, false)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 1
		}
		if *diffPath != "" {
			return runDiff(stdout, stderr, doc, *diffPath, *jsonOut)
		}
		if err := json.NewEncoder(stdout).Encode(doc); err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 1
		}
		return 0
	}

	s.WriteReport(stdout)
	writeWindows(stdout, s.Windows())
	if !writePprof(stderr, *pprofOut, s.Profiler(), "dprof: workload "+w.Name()) {
		return 1
	}
	return 0
}

// modeFlags are the flags each mode reads, keyed by the flag that selects
// the mode (a plain workload run is the default). -cpuprofile and
// -memprofile apply in every mode. Workload option flags (-fix, -seed, ...)
// apply wherever a workload runs and are checked against the selected
// workload by workload.NewConfig, except that a topology sweep sets
// -sockets and -cores-per-socket itself.
var modeFlags = map[string][]string{
	"-workload":       {"workload", "views", "type", "sets", "rate", "measure-ms", "lockstat", "oprofile", "json", "diff", "pprof"},
	"-sweep-topology": {"workload", "sweep-topology", "measure-ms"},
	"-experiment":     {"experiment", "quick", "parallel"},
	"-input":          {"input", "views", "type", "json", "diff", "pprof"},
	"-list-workloads": {"list-workloads"},
}

// ignoredFlags names, in flag order, every explicitly set flag the mode
// would not read, so a flag the user typed never silently has no effect.
func ignoredFlags(fs *flag.FlagSet, mode string, setOpts map[string]string) []string {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		_, isOpt := setOpts[f.Name]
		switch {
		case f.Name == "cpuprofile" || f.Name == "memprofile":
		case slices.Contains(modeFlags[mode], f.Name):
		case isOpt && mode == "-workload":
		case isOpt && mode == "-sweep-topology" && f.Name != "sockets" && f.Name != "cores-per-socket":
		default:
			ignored = append(ignored, "-"+f.Name)
		}
	})
	return ignored
}

// modeUsage lists the flags a mode reads, for the ignored-flag error.
func modeUsage(mode string) []string {
	var out []string
	for _, f := range modeFlags[mode] {
		out = append(out, "-"+f)
	}
	out = append(out, "-cpuprofile", "-memprofile")
	switch mode {
	case "-workload":
		out = append(out, "the workload's options (see -list-workloads)")
	case "-sweep-topology":
		out = append(out, "the workload's options other than -sockets and -cores-per-socket")
	}
	return out
}

// runExperiments regenerates paper tables and figures through the
// experiment engine. Progress streams to stderr as experiments start and
// finish; results print to stdout in request order, whatever -parallel is.
func runExperiments(ctx context.Context, stdout, stderr io.Writer, arg string, quick bool, workers int) int {
	names, ok := exp.ParseNames(arg)
	if !ok {
		fmt.Fprintf(stderr, "dprof: no experiment names in %q\n", arg)
		return 2
	}
	results, err := exp.RunAll(ctx, names, exp.Options{
		Quick:     quick,
		Workers:   workers,
		WarmStart: true,
		Progress: func(ev exp.Event) {
			switch ev.Kind {
			case exp.EventStarted:
				fmt.Fprintf(stderr, "[%d/%d] %s: running...\n", ev.Index+1, ev.Total, ev.Name)
			case exp.EventFinished:
				fmt.Fprintf(stderr, "[%d/%d] %s: done in %v\n", ev.Index+1, ev.Total, ev.Name, ev.Elapsed.Round(time.Millisecond))
			case exp.EventFailed:
				fmt.Fprintf(stderr, "[%d/%d] %s: FAILED: %v\n", ev.Index+1, ev.Total, ev.Name, ev.Err)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	exp.WriteResults(stdout, results)
	return 0
}

// writePprof exports a profile source as a gzipped pprof protobuf when a
// path was requested. Returns false on failure (already reported).
func writePprof(stderr io.Writer, path string, src core.ProfileSource, comment string) bool {
	if path == "" {
		return true
	}
	gz, err := pprofout.EncodeSource(src, pprofout.Meta{
		TimeNanos: time.Now().UnixNano(),
		Comments:  []string{comment},
	})
	if err == nil {
		err = os.WriteFile(path, gz, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dprof: writing pprof export: %v\n", err)
		return false
	}
	return true
}

// runIngest parses a perf.data capture and serves the same surfaces as a
// simulated run: text views, -json documents, -diff, and -pprof export.
func runIngest(stdout, stderr io.Writer, path, views, typeName string, jsonOut bool, diffPath, pprofPath string) int {
	p, err := perfin.ParseFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}

	var viewList []string
	for _, v := range strings.Split(views, ",") {
		if v = strings.TrimSpace(v); v == "" {
			continue
		} else if !slices.Contains(core.KnownViews, v) {
			fmt.Fprintf(stderr, "dprof: %v\n", &core.UnknownViewError{Name: v})
			return 2
		}
		viewList = append(viewList, v)
	}
	if diffPath != "" && !slices.Contains(viewList, "dataprofile") {
		viewList = append([]string{"dataprofile"}, viewList...)
	}

	target := p.DefaultTarget()
	if typeName != "" {
		if target = p.Source.TypeByName(typeName); target == nil {
			fmt.Fprintf(stderr, "dprof: type %q not in %s (mapped types: %s)\n",
				typeName, path, strings.Join(p.Types.Names(), ", "))
			return 2
		}
	}

	if !writePprof(stderr, pprofPath, p.Source, "dprof: ingested "+filepath.Base(path)) {
		return 1
	}

	if jsonOut || diffPath != "" {
		doc, err := core.BuildSourceDocument(p.Source, viewList, "perf:"+filepath.Base(path), map[string]string{}, target)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 1
		}
		doc.Summary = fmt.Sprintf("ingested %s: %d samples over %d mappings",
			filepath.Base(path), p.Stats.SamplesKept, p.Stats.Mappings)
		doc.Stamp(core.SourcePerf, time.Now())
		if diffPath != "" {
			return runDiff(stdout, stderr, doc, diffPath, jsonOut)
		}
		if err := json.NewEncoder(stdout).Encode(doc); err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "ingested %s\n%s\n\n", path, p.Stats)
	for _, v := range viewList {
		switch v {
		case "dataprofile":
			fmt.Fprintln(stdout, "== data profile view ==")
			fmt.Fprintln(stdout, core.DataProfileOf(p.Source).String())
		case "workingset":
			fmt.Fprintln(stdout, "== working set view ==")
			fmt.Fprintln(stdout, core.WorkingSetOf(p.Source).String())
			fmt.Fprintln(stdout, core.CacheResidencyOf(p.Source, core.DefaultReplayObjects).String())
		case "missclass":
			fmt.Fprintln(stdout, "== miss classification view ==")
			fmt.Fprintln(stdout, core.RenderMissClassification(core.MissClassificationOf(p.Source)))
		case "pathtrace":
			if target == nil {
				continue
			}
			fmt.Fprintln(stdout, "== path traces ==")
			for _, tr := range p.Source.PathTraces(target) {
				fmt.Fprintln(stdout, tr.String())
			}
		case "dataflow":
			if target == nil {
				continue
			}
			fmt.Fprintln(stdout, "== data flow view ==")
			g := core.DataFlowOf(p.Source, target)
			fmt.Fprintln(stdout, g.Render())
			for _, e := range g.CrossCPUEdges() {
				fmt.Fprintf(stdout, "cross-CPU: %s ==> %s (x%d)\n", e.From, e.To, e.Count)
			}
		}
	}
	return 0
}

// runDiff loads a saved -json profile as the baseline and ranks what
// changed against the just-finished run.
func runDiff(stdout, stderr io.Writer, doc *core.ProfileDocument, path string, jsonOut bool) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}
	// ParseDocument validates the schema version: a document written by a
	// newer dprof fails here with the upgrade hint, not with a shape error.
	saved, err := core.ParseDocument(raw)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %s: %v\n", path, err)
		return 2
	}
	rawA, err := saved.DataProfileExport()
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %s: %v\n", path, err)
		return 2
	}
	rawB, err := doc.DataProfileExport()
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 1
	}
	d, err := core.DiffExports(rawA, rawB)
	if err != nil {
		fmt.Fprintf(stderr, "dprof: %v\n", err)
		return 2
	}
	if jsonOut {
		out := core.NewDiffDocument(
			core.DiffSide{Workload: saved.Workload, Summary: saved.Summary},
			core.DiffSide{Workload: doc.Workload, Summary: doc.Summary},
			d,
		)
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "A (baseline): %s\nB (this run): %s\n\n", saved.Summary, doc.Summary)
	fmt.Fprint(stdout, d.String())
	if top := d.TopSuspect(); top != "" {
		fmt.Fprintf(stdout, "\ntop suspect: %s (score %.2f)\n", top, d.Rows[0].Score)
	}
	return 0
}

// writeWindows appends a per-window summary to a text report when the run
// was windowed.
func writeWindows(out io.Writer, snaps []*core.WindowSnapshot) {
	if len(snaps) < 2 {
		return // single-window runs are the monolithic default; nothing to add
	}
	fmt.Fprintln(out, "\n== profiling windows ==")
	fmt.Fprintf(out, "%-8s %14s %14s %10s %10s\n", "window", "start (ms)", "end (ms)", "samples", "misses")
	for _, ws := range snaps {
		fmt.Fprintf(out, "%-8d %14.2f %14.2f %10d %10d\n",
			ws.Index, float64(ws.Start)/1e6, float64(ws.End)/1e6, ws.Samples(), ws.Misses())
	}
}

// runTopologySweep rebuilds and runs the workload once per requested socket
// layout (overriding its sockets / cores-per-socket options) and prints one
// comparison row per topology. Workloads that do not declare the topology
// options are rejected with the declared set.
func runTopologySweep(stdout, stderr io.Writer, w workload.Workload, setOpts map[string]string, sweep string, measureMs uint64) int {
	fmt.Fprintf(stdout, "%-8s %14s  %s\n", "topology", "throughput", "summary")
	for _, spec := range strings.Split(sweep, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		topo, err := cache.ParseTopology(spec)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 2
		}
		opts := make(map[string]string, len(setOpts)+2)
		for k, v := range setOpts {
			opts[k] = v
		}
		opts["sockets"] = strconv.Itoa(topo.Sockets)
		opts["cores-per-socket"] = strconv.Itoa(topo.CoresPerSocket)
		cfg, err := workload.NewConfig(w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: %v\n", err)
			return 2
		}
		inst, err := w.Build(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "dprof: building %s on %s: %v\n", w.Name(), topo, err)
			return 1
		}
		res := inst.Run(w.Windows(false).Warmup, measureMs*1_000_000)
		fmt.Fprintf(stdout, "%-8s %14.0f  %s\n", topo, res.Values["throughput"], res.Summary)
	}
	return 0
}

func orZero(v, zero string) string {
	if v == "" {
		return zero
	}
	return v
}

// writeWorkloadList renders the registry: one line per workload plus its
// declared options.
func writeWorkloadList(out io.Writer) {
	for _, name := range workload.Names() {
		w, _ := workload.Get(name)
		fmt.Fprintf(out, "%-12s %s\n", name, w.Description())
		for _, o := range w.Options() {
			fmt.Fprintf(out, "    -%-10s %-6s (default %s) %s\n", o.Name, o.Kind, orZero(o.Default, "zero"), o.Usage)
		}
	}
}
