package workload_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// docGoldenWorkloads are the sessions the document goldens lock: a
// single-socket contention scenario, the NUMA scenario (exercising the
// cross-chip columns), and the memcached case study (the richest profile).
var docGoldenWorkloads = []string{"falseshare", "numaremote", "memcached"}

// docGolden is one workload's locked byte surface: the canonical
// ProfileDocument JSON (the dprofd POST /profile body) and the fully
// rendered text report (run summary plus all five views and their
// baselines), both captured before the source-neutral model refactor.
type docGolden struct {
	Document json.RawMessage `json:"document"`
	Report   string          `json:"report"`
}

func docGoldenPath(name string) string {
	return filepath.Join("testdata", "doc_goldens", name+".json")
}

// buildDocGolden runs one workload at quick fidelity and captures the
// canonical profile document and the rendered report.
func buildDocGolden(t *testing.T, name string) docGolden {
	t.Helper()
	s := runDefaultSession(t, name, 0)
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := workload.CanonicalOptions(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := core.BuildProfileDocument(s, core.KnownViews, w.Name(), canon, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return docGolden{Document: raw, Report: s.Report()}
}

// TestDocumentsMatchPreRefactorGoldens locks the sim-sourced
// ProfileDocument JSON and the rendered report (all five views) to goldens
// captured before the analysis stack moved onto the source-neutral profile
// model. The refactor from live *mem.Type keys to value descriptors must be
// byte-invisible here. Regenerate deliberately with:
//
//	go test ./internal/app/workload -run TestDocumentsMatchPreRefactorGoldens -update
func TestDocumentsMatchPreRefactorGoldens(t *testing.T) {
	for _, name := range docGoldenWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := buildDocGolden(t, name)
			path := docGoldenPath(name)
			if *updateViewGoldens {
				raw, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			var want docGolden
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("parse golden: %v", err)
			}
			var wantDoc bytes.Buffer
			if err := json.Compact(&wantDoc, want.Document); err != nil {
				t.Fatalf("compact golden document: %v", err)
			}
			if !bytes.Equal(wantDoc.Bytes(), got.Document) {
				t.Errorf("%s profile document drifted from pre-refactor golden:\n--- golden ---\n%s\n--- got ---\n%s",
					name, wantDoc.Bytes(), got.Document)
			}
			if want.Report != got.Report {
				t.Errorf("%s rendered report drifted from pre-refactor golden:\n--- golden ---\n%s\n--- got ---\n%s",
					name, want.Report, got.Report)
			}
		})
	}
}

// fullReportOptions is the full-fidelity profile the golden below locks:
// the §6.1 memcached case study on the paper's 4-socket x 4-core machine at
// one fixed seed with all five views: the document perfbench's
// report-memcached profiles build, and the one `dprof -json -workload
// memcached -sockets 4 -cores-per-socket 4 -seed 7 -views
// dataprofile,workingset,missclass,dataflow,pathtrace` prints. The other
// document goldens run at quick fidelity, where the §4.2 replay sees far
// fewer objects.
var fullReportOptions = map[string]string{"sockets": "4", "cores-per-socket": "4", "seed": "7"}

// TestFullFidelityDocumentGolden locks the full-fidelity memcached 4x4
// ProfileDocument JSON byte for byte. Regenerate deliberately with:
//
//	go test ./internal/app/workload -run TestFullFidelityDocumentGolden -update
func TestFullFidelityDocumentGolden(t *testing.T) {
	w, err := workload.Lookup("memcached")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := workload.NewConfig(w, fullReportOptions)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := workload.CanonicalOptions(w, fullReportOptions)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win := w.Windows(false)
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler:     core.DefaultConfig(),
		Views:        core.KnownViews,
		TypeName:     w.DefaultTarget(),
		Warmup:       win.Warmup,
		Measure:      win.Measure,
		WindowCycles: workload.WindowCycles(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	doc, err := core.BuildProfileDocument(s, core.KnownViews, w.Name(), canon, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := docGoldenPath("memcached-4x4-full")
	if *updateViewGoldens {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, got, "", "  "); err != nil {
			t.Fatal(err)
		}
		pretty.WriteByte('\n')
		if err := os.WriteFile(path, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, raw); err != nil {
		t.Fatalf("compact golden document: %v", err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Errorf("full-fidelity memcached 4x4 document drifted from golden:\n--- golden ---\n%s\n--- got ---\n%s", want.Bytes(), got)
	}
}
