package workload_test

import (
	"bytes"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// runModeSession runs one workload at its defaults (quick fidelity) with the
// engine's optimized hot paths or the retained reference paths.
func runModeSession(t *testing.T, name string, windowCycles uint64, reference bool) *core.Session {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		inst.Machine().SetReference(true)
	}
	win := w.Windows(true)
	cfg := core.SessionConfig{
		Profiler:     core.DefaultConfig(),
		Views:        core.KnownViews,
		TypeName:     w.DefaultTarget(),
		Warmup:       win.Warmup,
		Measure:      win.Measure,
		WindowCycles: windowCycles,
	}
	s, err := core.NewSession(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s
}

// compareModeSessions asserts an optimized and a reference session exposed
// byte-identical view exports, run results, and window snapshots.
func compareModeSessions(t *testing.T, opt, ref *core.Session) {
	t.Helper()
	optViews := exportAllViews(t, "optimized", opt)
	refViews := exportAllViews(t, "reference", ref)
	for view, want := range refViews {
		got, ok := optViews[view]
		if !ok {
			t.Errorf("optimized run missing %s view", view)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s view differs between reference and optimized paths:\n--- reference ---\n%s\n--- optimized ---\n%s",
				view, want, got)
		}
	}
	or, rr := opt.Result(), ref.Result()
	if or.Summary != rr.Summary {
		t.Errorf("run summaries differ:\nreference: %s\noptimized: %s", rr.Summary, or.Summary)
	}
	for k, v := range rr.Values {
		if ov := or.Values[k]; ov != v {
			t.Errorf("run value %q differs: reference %v, optimized %v", k, v, ov)
		}
	}
	ow, rw := opt.Windows(), ref.Windows()
	if len(ow) != len(rw) {
		t.Fatalf("window counts differ: optimized %d, reference %d", len(ow), len(rw))
	}
	for i := range rw {
		a, b := rw[i], ow[i]
		if a.Start != b.Start || a.End != b.End || a.Final != b.Final ||
			a.Samples() != b.Samples() || a.Misses() != b.Misses() {
			t.Errorf("window %d metadata differs between reference and optimized paths", i)
		}
		for view, want := range a.Views {
			if got, ok := b.Views[view]; !ok || !bytes.Equal(want, got) {
				t.Errorf("window %d %s view differs between reference and optimized paths", i, view)
			}
		}
	}
}

// TestReferencePathEquivalence is the differential gate for the hot-path
// optimizations (MRU fast path, armed hook dispatch, bypass-slot event
// wheel): for every registered workload, the optimized engine must produce
// byte-identical profiles — every view, every window snapshot, every run
// value — to the retained reference paths, monolithic and windowed. CI runs
// this under -race.
func TestReferencePathEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			win := w.Windows(true)

			t.Run("monolithic", func(t *testing.T) {
				opt := runModeSession(t, name, 0, false)
				ref := runModeSession(t, name, 0, true)
				compareModeSessions(t, opt, ref)
			})
			t.Run("windowed", func(t *testing.T) {
				length := (win.Warmup + win.Measure) / 4
				opt := runModeSession(t, name, length, false)
				ref := runModeSession(t, name, length, true)
				compareModeSessions(t, opt, ref)
				if len(opt.Windows()) < 2 {
					t.Errorf("windowed run produced %d windows, want >= 2", len(opt.Windows()))
				}
			})
		})
	}
}
