package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// warmReqs vary only the measured length (and one adds windowing), so on a
// warm-start server they all fork from a single checkpoint.
var warmReqs = []string{
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":2,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":3,"quick":true}`,
}

// TestProfileWarmForkMatchesCold is the serving half of the warm-start
// correctness bar: every response forked from a pooled checkpoint must be
// byte-identical to the same request simulated cold, and the pool must have
// captured one warmup for the whole family.
func TestProfileWarmForkMatchesCold(t *testing.T) {
	_, tsCold := newTestServer(t, Config{CheckpointPoolBytes: -1})
	warmSrv, tsWarm := newTestServer(t, Config{})
	if warmSrv.ckpts == nil {
		t.Fatal("checkpoint pool not enabled by default")
	}
	for _, req := range warmReqs {
		respCold, bodyCold := postProfile(t, tsCold, req)
		respWarm, bodyWarm := postProfile(t, tsWarm, req)
		if respCold.StatusCode != http.StatusOK || respWarm.StatusCode != http.StatusOK {
			t.Fatalf("status cold=%d warm=%d for %s", respCold.StatusCode, respWarm.StatusCode, req)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("forked profile differs from cold for %s:\n--- cold ---\n%s\n--- warm ---\n%s",
				req, bodyCold, bodyWarm)
		}
	}

	resp, err := http.Get(tsWarm.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Checkpoints struct {
			Entries   int    `json:"entries"`
			Captures  uint64 `json:"captures"`
			Forks     uint64 `json:"forks"`
			Bytes     int64  `json:"bytes"`
			MaxBytes  int64  `json:"max_bytes"`
			Evictions uint64 `json:"evictions"`
		} `json:"checkpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ck := stats.Checkpoints
	if ck.Captures != 1 {
		t.Errorf("captures = %d, want 1 (one warmup for the family)", ck.Captures)
	}
	if ck.Forks != uint64(len(warmReqs)) {
		t.Errorf("forks = %d, want %d", ck.Forks, len(warmReqs))
	}
	if ck.Entries != 1 || ck.Bytes <= 0 {
		t.Errorf("entries = %d bytes = %d, want one resident checkpoint", ck.Entries, ck.Bytes)
	}
	if ck.MaxBytes != 256<<20 {
		t.Errorf("max_bytes = %d, want the 256 MiB default", ck.MaxBytes)
	}
}

// TestProfileWarmWindowedMatchesCold covers the mid-window case: a windowed
// (but not streamed) session checkpoints at the warmup boundary with the
// window machinery already started, and its forks must still render the
// identical document.
func TestProfileWarmWindowedMatchesCold(t *testing.T) {
	_, tsCold := newTestServer(t, Config{CheckpointPoolBytes: -1})
	_, tsWarm := newTestServer(t, Config{})
	for _, req := range []string{
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":2,"quick":true}`,
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":3,"quick":true}`,
	} {
		respCold, bodyCold := postProfile(t, tsCold, req)
		respWarm, bodyWarm := postProfile(t, tsWarm, req)
		if respCold.StatusCode != http.StatusOK || respWarm.StatusCode != http.StatusOK {
			t.Fatalf("status cold=%d warm=%d for %s", respCold.StatusCode, respWarm.StatusCode, req)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("windowed forked profile differs from cold for %s", req)
		}
	}
}

// TestCheckpointPoolEviction: a budget smaller than any checkpoint still
// serves correct responses — capture, fork, evict, recapture — and the
// accounting reflects it.
func TestCheckpointPoolEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CheckpointPoolBytes: 1})
	for _, req := range warmReqs[:2] {
		if resp, _ := postProfile(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, req)
		}
	}
	st := s.ckpts.statsMap()
	if st["captures"].(uint64) != 2 || st["evictions"].(uint64) != 2 {
		t.Errorf("captures/evictions = %v/%v, want 2/2 (every capture busts the 1-byte budget)",
			st["captures"], st["evictions"])
	}
	if st["entries"].(int) != 0 || st["bytes"].(int64) != 0 {
		t.Errorf("entries/bytes = %v/%v, want an empty pool", st["entries"], st["bytes"])
	}
}

// coldOnlyWorkload wraps the falseshare workload so its instances hide
// RunWarmup: they are plain core.Runnables without the warm-start contract,
// so Session.Warmup refuses them.
type coldOnlyWorkload struct{ workload.Workload }

func (coldOnlyWorkload) Name() string { return "coldonly" }

func (w coldOnlyWorkload) Build(cfg workload.Config) (core.Runnable, error) {
	inst, err := w.Workload.Build(cfg)
	if err != nil {
		return nil, err
	}
	return struct{ core.Runnable }{inst}, nil
}

func init() {
	fs, err := workload.Lookup("falseshare")
	if err != nil {
		panic(err)
	}
	workload.Register(coldOnlyWorkload{fs})
}

// TestProfileNonWarmWorkloadRunsCold: a workload without the warm-start
// contract cannot warm-start; the pool remembers the refusal and every
// request takes the cold path untouched.
func TestProfileNonWarmWorkloadRunsCold(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, req := range []string{
		`{"workload":"coldonly","views":["dataprofile"],"measure_ms":1,"quick":true}`,
		`{"workload":"coldonly","views":["dataprofile"],"measure_ms":2,"quick":true}`,
	} {
		if resp, body := postProfile(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s: %s", resp.StatusCode, req, body)
		}
	}
	st := s.ckpts.statsMap()
	if st["captures"].(uint64) != 0 || st["forks"].(uint64) != 0 {
		t.Errorf("non-warm requests touched the pool: captures=%v forks=%v", st["captures"], st["forks"])
	}
	if st["entries"].(int) != 1 {
		t.Errorf("entries = %v, want 1 (the remembered cold marker)", st["entries"])
	}
}
