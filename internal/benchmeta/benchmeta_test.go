package benchmeta

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCollectReadsHarnessEnv(t *testing.T) {
	t.Setenv("DPROF_GIT_COMMIT", "abc123")
	t.Setenv("DPROF_WRITTEN_AT", "2026-01-02T03:04:05Z")
	p := Collect()
	if p.GitCommit != "abc123" || p.WrittenAt != "2026-01-02T03:04:05Z" {
		t.Errorf("Collect() = %+v", p)
	}
	if p.GoMaxProcs <= 0 || p.HostCPUs <= 0 {
		t.Errorf("host fields not populated: %+v", p)
	}
}

func TestWriteEmbedsProvenanceInline(t *testing.T) {
	t.Setenv("DPROF_GIT_COMMIT", "abc123")
	t.Setenv("DPROF_WRITTEN_AT", "")
	art := struct {
		Benchmark string `json:"benchmark"`
		Provenance
	}{Benchmark: "demo", Provenance: Collect()}
	path := filepath.Join(t.TempDir(), "BENCH_demo.json")
	if err := Write(path, art); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), "\n") {
		t.Error("artifact does not end in a newline")
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	// Embedded, not nested: readers find the same top-level keys in every
	// artifact, and empty optional stamps are omitted.
	if got["git_commit"] != "abc123" || got["benchmark"] != "demo" {
		t.Errorf("artifact keys wrong: %v", got)
	}
	for _, absent := range []string{"written_at", "Provenance"} {
		if _, ok := got[absent]; ok {
			t.Errorf("unexpected key %q in artifact: %v", absent, got)
		}
	}
	if _, ok := got["gomaxprocs"]; !ok {
		t.Errorf("gomaxprocs missing: %v", got)
	}
}
