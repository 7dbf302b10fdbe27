package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dprof/internal/app/workload"
	"dprof/internal/exp"
)

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		wantCode   int
		wantErrOut []string
	}{
		{
			name:       "unknown workload fails and prints the valid set",
			args:       []string{"-workload", "nginx"},
			wantCode:   2,
			wantErrOut: []string{"unknown workload", "nginx", "memcached", "apache"},
		},
		{
			name:       "unknown view fails and prints the valid set",
			args:       []string{"-views", "dataprofle"},
			wantCode:   2,
			wantErrOut: []string{"unknown view", "dataprofle", "dataprofile", "pathtrace"},
		},
		{
			name:       "unknown type fails and prints the valid set",
			args:       []string{"-views", "dataflow", "-type", "skbuf"},
			wantCode:   2,
			wantErrOut: []string{"unknown type", "skbuf", "skbuff"},
		},
		{
			name:       "unknown experiment fails and prints the valid set",
			args:       []string{"-experiment", "table9.9"},
			wantCode:   1,
			wantErrOut: []string{"unknown experiment", "table9.9", "table6.1"},
		},
		{
			name:       "experiment mode rejects the workload flags it would ignore",
			args:       []string{"-experiment", "table6.1", "-quick", "-rate", "25", "-views", "missclass", "-fix"},
			wantCode:   2,
			wantErrOut: []string{"-experiment ignores -fix, -rate, -views", "-parallel"},
		},
		{
			name:       "workload mode rejects the experiment flags it would ignore",
			args:       []string{"-workload", "falseshare", "-parallel", "4", "-quick"},
			wantCode:   2,
			wantErrOut: []string{"-workload ignores -parallel, -quick", "-rate"},
		},
		{
			name:       "a default workload run rejects -parallel too",
			args:       []string{"-parallel", "2"},
			wantCode:   2,
			wantErrOut: []string{"-workload ignores -parallel"},
		},
		{
			name:       "ingest mode rejects -experiment and simulation flags",
			args:       []string{"-input", "mem.perf.data", "-experiment", "table6.1", "-rate", "25"},
			wantCode:   2,
			wantErrOut: []string{"-input ignores -experiment, -rate"},
		},
		{
			name:       "the workload listing rejects run flags",
			args:       []string{"-list-workloads", "-experiment", "all", "-rate", "5"},
			wantCode:   2,
			wantErrOut: []string{"-list-workloads ignores -experiment, -rate"},
		},
		{
			name:       "topology sweep rejects the flags it overrides or ignores",
			args:       []string{"-workload", "numaremote", "-sweep-topology", "1x16", "-sockets", "2", "-json"},
			wantCode:   2,
			wantErrOut: []string{"-sweep-topology ignores -json, -sockets"},
		},
		{
			name:       "bad flag fails",
			args:       []string{"-no-such-flag"},
			wantCode:   2,
			wantErrOut: []string{"flag provided but not defined"},
		},
		{
			name:       "parallel-shards is not a flag",
			args:       []string{"-workload", "falseshare", "-parallel-shards", "4"},
			wantCode:   2,
			wantErrOut: []string{"flag provided but not defined", "-parallel-shards"},
		},
		{
			name:       "memcached rejects apache's -offered and lists declared options",
			args:       []string{"-workload", "memcached", "-offered", "110000"},
			wantCode:   2,
			wantErrOut: []string{"does not accept", "offered", "fix", "window"},
		},
		{
			name:       "apache rejects memcached's -fix",
			args:       []string{"-workload", "apache", "-fix"},
			wantCode:   2,
			wantErrOut: []string{"does not accept", "fix", "backlog", "offered"},
		},
		{
			name:       "apache rejects memcached's -window",
			args:       []string{"-workload", "apache", "-window", "10"},
			wantCode:   2,
			wantErrOut: []string{`workload "apache"`, "does not accept", "window"},
		},
		{
			name:       "scenario workloads reject case-study options",
			args:       []string{"-workload", "falseshare", "-backlog", "5"},
			wantCode:   2,
			wantErrOut: []string{`workload "falseshare"`, "does not accept", "backlog", "padded"},
		},
		{
			name:       "unknown workload message lists the scenario workloads too",
			args:       []string{"-workload", "nginx"},
			wantCode:   2,
			wantErrOut: []string{"falseshare", "conflict", "trueshare", "alienping", "numaremote"},
		},
		{
			name:       "invalid topology is rejected",
			args:       []string{"-workload", "numaremote", "-sockets", "9", "-cores-per-socket", "9"},
			wantCode:   1,
			wantErrOut: []string{"topology", "9x9"},
		},
		{
			name:       "socket count that does not divide the L3 is a CLI error, not a panic",
			args:       []string{"-workload", "numaremote", "-sockets", "3", "-cores-per-socket", "4"},
			wantCode:   1,
			wantErrOut: []string{"L3 size", "3 sockets"},
		},
		{
			name:       "unknown alloc policy is rejected and lists the valid set",
			args:       []string{"-workload", "numaremote", "-alloc-policy", "bogus"},
			wantCode:   1,
			wantErrOut: []string{"unknown allocation policy", "bogus", "firsttouch", "interleave", "pinned"},
		},
		{
			name:       "workloads without topology options reject -sockets",
			args:       []string{"-workload", "falseshare", "-sockets", "4"},
			wantCode:   2,
			wantErrOut: []string{`workload "falseshare"`, "does not accept", "sockets"},
		},
		{
			name:       "malformed sweep topology is rejected",
			args:       []string{"-workload", "numaremote", "-sweep-topology", "4by4"},
			wantCode:   2,
			wantErrOut: []string{"SOCKETSxCORES"},
		},
		{
			name:       "unwritable cpuprofile path is a usage error",
			args:       []string{"-workload", "falseshare", "-cpuprofile", filepath.Join("no", "such", "dir", "cpu.pprof")},
			wantCode:   2,
			wantErrOut: []string{"dprof:", "cpu.pprof"},
		},
		{
			name:       "unwritable memprofile path is a usage error",
			args:       []string{"-workload", "falseshare", "-memprofile", filepath.Join("no", "such", "dir", "heap.pprof")},
			wantCode:   2,
			wantErrOut: []string{"dprof:", "heap.pprof"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(context.Background(), tt.args, &out, &errOut)
			if code != tt.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tt.wantCode, out.String(), errOut.String())
			}
			for _, want := range tt.wantErrOut {
				if !strings.Contains(errOut.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut.String())
				}
			}
		})
	}
}

// TestHelpSharedOptionUsage: a workload option flag declared by several
// workloads is described without any one workload's name, and where their
// defaults differ the help points at -list-workloads instead of showing one
// workload's default. An option only one workload declares keeps its
// workload's name.
func TestHelpSharedOptionUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2 (flag.ErrHelp)", code)
	}
	// PrintDefaults writes "  -name type" then the usage on a tab-indented
	// line; fold each flag's lines into one.
	usage := map[string]string{}
	var name string
	for _, line := range strings.Split(errOut.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name = strings.Fields(rest)[0]
			usage[name] = ""
		} else if name != "" && strings.HasPrefix(line, "    \t") {
			usage[name] += strings.TrimSpace(line)
		}
	}
	labelled := func(u string) bool {
		for _, w := range workload.Names() {
			if strings.HasPrefix(u, w+": ") {
				return true
			}
		}
		return false
	}
	for _, shared := range []string{"seed", "window-ms", "sockets", "cores-per-socket", "alloc-policy", "pinned-node"} {
		if u, ok := usage[shared]; !ok || labelled(u) {
			t.Errorf("-%s usage = %q, want it listed without a workload prefix", shared, u)
		}
	}
	const varies = "(default varies by workload; see -list-workloads)"
	for _, differ := range []string{"sockets", "cores-per-socket", "batch"} {
		if u := usage[differ]; !strings.HasSuffix(u, varies) || strings.Count(u, "(default ") != 1 {
			t.Errorf("-%s usage = %q, want no single default and a pointer to -list-workloads", differ, u)
		}
	}
	if u := usage["padded"]; !strings.HasPrefix(u, "falseshare: ") {
		t.Errorf("-padded usage = %q, want the falseshare prefix", u)
	}
}

// TestExperimentCLI covers -experiment mode end to end: listing, name
// errors, progress on stderr and values on stdout. wantOut substrings must
// appear on stdout in the order given, so a multi-experiment case also checks
// that results print in request order.
func TestExperimentCLI(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		runs       bool // runs a real experiment; skipped under -short
		wantCode   int
		wantOut    []string
		wantErrOut []string
	}{
		{
			name:       "list names every experiment",
			args:       []string{"-h"},
			wantCode:   2, // flag.ErrHelp
			wantErrOut: exp.Names(),
		},
		{
			name:       "unknown experiment fails and prints the valid set",
			args:       []string{"-experiment", "table9.9", "-quick"},
			wantCode:   1,
			wantErrOut: append([]string{"unknown experiment", "table9.9"}, exp.Names()...),
		},
		{
			name:       "unknown name in a comma list fails",
			args:       []string{"-experiment", "table6.1,bogus", "-quick"},
			wantCode:   1,
			wantErrOut: []string{"unknown experiment", "bogus", "table6.1"},
		},
		{
			name:       "bad flag fails",
			args:       []string{"-experiment", "table6.1", "-no-such-flag"},
			wantCode:   2,
			wantErrOut: []string{"flag provided but not defined", "-no-such-flag"},
		},
		{
			name:       "comma-only experiment list fails instead of running everything",
			args:       []string{"-experiment", ","},
			wantCode:   2,
			wantErrOut: []string{"no experiment names"},
		},
		{
			name:       "single experiment runs and streams progress",
			args:       []string{"-experiment", "table6.1", "-quick"},
			runs:       true,
			wantCode:   0,
			wantOut:    []string{"=== table6.1", "  top_is_size1024 "},
			wantErrOut: []string{"[1/1] table6.1: running", "[1/1] table6.1: done"},
		},
		{
			name:       "parallel subset prints results in request order",
			args:       []string{"-experiment", "table6.3,table6.1", "-quick", "-parallel", "2"},
			runs:       true,
			wantCode:   0,
			wantOut:    []string{"=== table6.3", "  top_clk_pct ", "=== table6.1", "  top_is_size1024 "},
			wantErrOut: []string{"[1/2] table6.3: done", "[2/2] table6.1: done"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.runs && testing.Short() {
				t.Skip("runs a full quick experiment")
			}
			var out, errOut strings.Builder
			code := run(context.Background(), tt.args, &out, &errOut)
			if code != tt.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tt.wantCode, out.String(), errOut.String())
			}
			rest := out.String()
			for _, want := range tt.wantOut {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Errorf("stdout missing %q after the earlier wants:\n%s", want, out.String())
					break
				}
				rest = rest[i+len(want):]
			}
			for _, want := range tt.wantErrOut {
				if !strings.Contains(errOut.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut.String())
				}
			}
		})
	}
}

func TestListWorkloads(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-list-workloads"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"memcached", "apache", "falseshare", "conflict", "trueshare", "alienping", "numaremote", "-fix", "-offered", "-padded", "-sockets", "-alloc-policy", "-seed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("listing missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunScenarioWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-workload", "trueshare", "-views", "dataprofile,missclass", "-lockstat", "-measure-ms", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"== data profile view ==", "== miss classification view ==", "== lock-stat baseline ==", "job lock"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMemcachedDataProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-workload", "memcached", "-measure-ms", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "== data profile view ==") {
		t.Errorf("data profile view missing:\n%s", out.String())
	}
}

func TestRunTopologySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-workload", "numaremote", "-sweep-topology", "1x16,4x4", "-measure-ms", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"topology", "1x16", "4x4", "buffers/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunExperimentMode: one experiment prints its paper block with its
// values on stdout.
func TestRunExperimentMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick experiment")
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-experiment", "table6.1", "-quick"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"=== table6.1", "size-1024", "  top_is_size1024 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunParallelOrderPreserved: experiments run concurrently still print
// in request order.
func TestRunParallelOrderPreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick experiments")
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-experiment", "table6.3,table6.1", "-quick", "-parallel", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	i3 := strings.Index(out.String(), "=== table6.3")
	i1 := strings.Index(out.String(), "=== table6.1")
	if i3 < 0 || i1 < 0 || i3 > i1 {
		t.Errorf("results not in request order (table6.3 at %d, table6.1 at %d):\n%s", i3, i1, out.String())
	}
	if !strings.Contains(out.String(), "  top_clk_pct ") {
		t.Errorf("table6.3 values missing:\n%s", out.String())
	}
}

// TestJSONOutputMatchesDocumentFormat runs a tiny session with -json and
// checks the output parses as the canonical profile document (the dprofd
// POST /profile format) with the canonical options filled in.
func TestJSONOutputMatchesDocumentFormat(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run(context.Background(), []string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1", "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var doc struct {
		Workload string                     `json:"workload"`
		Options  map[string]string          `json:"options"`
		Topology string                     `json:"topology"`
		Summary  string                     `json:"summary"`
		Values   map[string]float64         `json:"values"`
		Views    map[string]json.RawMessage `json:"views"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, stdout.String())
	}
	if doc.Workload != "falseshare" || doc.Summary == "" || doc.Topology == "" {
		t.Errorf("document incomplete: %+v", doc)
	}
	if doc.Options["padded"] != "false" || doc.Options["seed"] != "0" || doc.Options["window-ms"] != "0" {
		t.Errorf("canonical options not filled in: %v", doc.Options)
	}
	if _, ok := doc.Views["dataprofile"]; !ok {
		t.Errorf("views missing dataprofile: %v", doc.Views)
	}
	if doc.Values["throughput"] <= 0 {
		t.Errorf("values missing throughput: %v", doc.Values)
	}
}

// TestDiffAgainstSavedProfile saves a broken falseshare profile with -json,
// rediffs the fixed run against it, and checks pkt_stat tops the ranking —
// the paper's differential-analysis workflow end to end through the CLI.
func TestDiffAgainstSavedProfile(t *testing.T) {
	var saved, stderr strings.Builder
	code := run(context.Background(), []string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1", "-json",
	}, &saved, &stderr)
	if code != 0 {
		t.Fatalf("saving profile: exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, []byte(saved.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout strings.Builder
	stderr.Reset()
	code = run(context.Background(), []string{
		"-workload", "falseshare", "-padded", "-rate", "100000", "-measure-ms", "1",
		"-diff", path, "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("diff: exit %d: %s", code, stderr.String())
	}
	var out struct {
		Top  string `json:"top"`
		Diff struct {
			Rows []struct {
				Type  string  `json:"type"`
				Score float64 `json:"score"`
			} `json:"rows"`
		} `json:"diff"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &out); err != nil {
		t.Fatalf("diff output not JSON: %v\n%s", err, stdout.String())
	}
	if out.Top != "pkt_stat" {
		t.Errorf("top suspect = %q, want pkt_stat\n%s", out.Top, stdout.String())
	}

	// Text mode renders the ranked table with the same suspect on top.
	stdout.Reset()
	stderr.Reset()
	code = run(context.Background(), []string{
		"-workload", "falseshare", "-padded", "-rate", "100000", "-measure-ms", "1",
		"-diff", path,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("text diff: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "top suspect: pkt_stat") {
		t.Errorf("text diff missing top suspect line:\n%s", stdout.String())
	}

	// A missing file is a usage error.
	stderr.Reset()
	if code := run(context.Background(), []string{
		"-workload", "falseshare", "-diff", filepath.Join(t.TempDir(), "nope.json"),
	}, &stdout, &stderr); code != 2 {
		t.Errorf("missing diff file: exit %d, want 2", code)
	}
}

// TestSelfProfilingFlagsWriteProfiles runs a tiny session with -cpuprofile
// and -memprofile and checks both files land as parseable pprof data (gzip
// magic) without disturbing the run's own output.
func TestSelfProfilingFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	var stdout, stderr strings.Builder
	code := run(context.Background(), []string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1",
		"-cpuprofile", cpu, "-memprofile", heap,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== data profile view ==") {
		t.Errorf("profiled run lost its report:\n%s", stdout.String())
	}
	for _, path := range []string{cpu, heap} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		// pprof files are gzip-compressed protobufs; the magic is enough to
		// know the writer ran and flushed.
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Errorf("%s is not a gzip pprof profile (%d bytes)", path, len(raw))
		}
	}
}

// TestWindowedTextReportListsWindows checks -window-ms adds the per-window
// summary to the text report.
func TestWindowedTextReportListsWindows(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run(context.Background(), []string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "3", "-window-ms", "1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "== profiling windows ==") {
		t.Fatalf("windowed report missing window summary:\n%s", out)
	}
	if !strings.Contains(out, "window") || strings.Count(out, "\n") < 5 {
		t.Errorf("window table too short:\n%s", out)
	}
}
