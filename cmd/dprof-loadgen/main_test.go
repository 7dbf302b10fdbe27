package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dprof/internal/serve"
)

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
}

func TestRunRequiresTargets(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), nil, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-targets") {
		t.Errorf("stderr missing -targets hint:\n%s", errOut.String())
	}
}

func TestRunRejectsBadZipf(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-targets", "http://127.0.0.1:1", "-zipf-s", "0.5"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "zipf") {
		t.Errorf("stderr missing zipf error:\n%s", errOut.String())
	}
}

// TestRunEndToEnd drives the binary's run() against a real in-process
// dprofd: the report lands on stdout and the JSON artifact on disk.
func TestRunEndToEnd(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	artifact := filepath.Join(t.TempDir(), "load.json")
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-targets", ts.URL,
		"-n", "24", "-concurrency", "3", "-keys", "6", "-seed", "5",
		"-json", artifact, "-phase", "smoke",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"throughput", "latency ms", "p99", "dispositions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Benchmark string `json:"benchmark"`
		Phases    map[string]struct {
			Requests int `json:"requests"`
			Latency  struct {
				P99 float64 `json:"p99"`
			} `json:"latency_ms"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, raw)
	}
	if art.Benchmark != "dprofd-load" || art.Phases["smoke"].Requests != 24 || art.Phases["smoke"].Latency.P99 <= 0 {
		t.Errorf("artifact incomplete: %s", raw)
	}
}
