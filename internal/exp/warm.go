package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dprof/internal/core"
	"dprof/internal/sim"
)

// RunCfg is what the engine hands each experiment body. Quick selects the
// small run windows; the unexported pool, when present, shares warm-start
// checkpoints between experiments of the same RunAll.
//
// Experiments reach simulation through the session and bare helpers below.
// With a nil pool both run cold, exactly as the bodies did before warm-start
// existed; with a pool, runs that share a warmup prefix (same workload,
// options, profiler configuration, and warmup length) fork one checkpoint
// instead of re-simulating the warmup, and runs with identical full
// configurations are answered from the already-materialized state without
// running at all. Either way the observable results are byte-identical to
// cold runs — that is the warm-start correctness bar, enforced by the
// equivalence tests.
type RunCfg struct {
	Quick bool
	warm  *warmPool
}

// warmPool shares warmup checkpoints across the experiments of one RunAll.
// Entries are keyed by warm key — everything that shapes the simulation up
// to the warmup boundary — and each entry serializes its forks and reads
// under one mutex (forks of a checkpoint rewind the single live machine, so
// state reads must not interleave with another experiment's fork).
type warmPool struct {
	mu      sync.Mutex
	entries map[string]*warmEntry
}

func newWarmPool() *warmPool {
	return &warmPool{entries: make(map[string]*warmEntry)}
}

func (p *warmPool) entry(warmKey string) *warmEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[warmKey]
	if e == nil {
		e = &warmEntry{}
		p.entries[warmKey] = e
	}
	return e
}

// warmEntry is one warmed workload: the session or bare instance, its
// checkpoint at the warmup boundary, and which full configuration the
// machine currently embodies (the memo that lets identical runs share).
type warmEntry struct {
	mu sync.Mutex

	init bool
	cold bool // workload can't warm-start: fall back to per-call cold runs

	// Session kind.
	sess *core.Session
	cp   *core.Checkpoint

	// Bare kind (no profiler session).
	inst  core.Runnable
	wr    core.WarmRunnable
	snap  *sim.Snapshot
	forks int

	warmup  uint64
	current string // full key of the measured phase the state reflects
	res     core.RunResult
}

// optsKey canonicalizes a workload option map.
func optsKey(opts map[string]string) string {
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, opts[k])
	}
	return b.String()
}

// sessionKeys derives the warm key (everything shaping the run up to the
// warmup boundary) and the full key (warm key plus the measured length) for
// a profiled session. Measure is the only SessionConfig field a fork may
// vary; every other field changes profiler behavior during warmup (sampling,
// collection targeting, windowing) and so splits the warm key.
func sessionKeys(name string, opts map[string]string, scfg core.SessionConfig) (warmKey, fullKey string) {
	warmKey = fmt.Sprintf("session|%s|%s|rate=%v,addrs=%d,watch=%d|type=%s,sets=%d,range=%d,life=%d|ls=%t,op=%t|win=%d,views=%s|warm=%d",
		name, optsKey(opts),
		scfg.Profiler.SampleRate, scfg.Profiler.MaxAddrRecords, scfg.Profiler.WatchLen,
		scfg.TypeName, scfg.Sets, scfg.WatchRange, scfg.MaxLifetime,
		scfg.LockStat, scfg.OProfile,
		scfg.WindowCycles, strings.Join(scfg.Views, ";"),
		scfg.Warmup)
	fullKey = fmt.Sprintf("%s|measure=%d", warmKey, scfg.Measure)
	return
}

// session runs a profiled session and hands it, still locked, to read.
//
// Cold (no pool): build, run, read. Warm: the pool entry for the session's
// warm key is forked — the first caller pays the warmup and captures the
// checkpoint; later callers with a different measured phase restore and
// re-run only the measured phase; callers with an identical full
// configuration read the already-materialized state directly. read must not
// retain the session: it is shared, and another experiment's fork will
// rewind it.
func (rc RunCfg) session(name string, opts map[string]string, scfg core.SessionConfig, read func(*core.Session, core.RunResult)) {
	if rc.warm == nil || scfg.OnWindow != nil {
		s := mustSession(build(name, opts), scfg)
		read(s, s.Run())
		return
	}
	warmKey, fullKey := sessionKeys(name, opts, scfg)
	e := rc.warm.entry(warmKey)
	e.mu.Lock()
	defer e.mu.Unlock()

	if !e.init {
		e.init = true
		s := mustSession(build(name, opts), scfg)
		cp, err := s.Warmup()
		if err != nil {
			// Workload can't split its run: remember that and serve every
			// call cold.
			e.cold = true
		} else {
			e.sess, e.cp = s, cp
		}
	}
	if e.cold {
		s := mustSession(build(name, opts), scfg)
		read(s, s.Run())
		return
	}
	if e.current != fullKey {
		e.res = e.cp.Fork(scfg.Measure)
		e.current = fullKey
	}
	read(e.sess, e.res)
}

// bare runs an unprofiled workload instance (the paper's clean baseline
// runs) and hands it, still locked, to read. The lock registry is reset
// before the warmup on every path, so lock-stat reports always cover
// warmup+measure from a clean slate — cold callers that don't read locks are
// unaffected, and warm forks restore the registry to its boundary state.
func (rc RunCfg) bare(name string, opts map[string]string, w window, read func(core.Runnable, core.RunResult)) {
	if rc.warm == nil {
		inst := build(name, opts)
		inst.Locks().Reset()
		read(inst, inst.Run(w.warmup, w.measure))
		return
	}
	warmKey := fmt.Sprintf("bare|%s|%s|warm=%d", name, optsKey(opts), w.warmup)
	fullKey := fmt.Sprintf("%s|measure=%d", warmKey, w.measure)
	e := rc.warm.entry(warmKey)
	e.mu.Lock()
	defer e.mu.Unlock()

	if !e.init {
		e.init = true
		inst := build(name, opts)
		inst.Locks().Reset()
		wr, ok := inst.(core.WarmRunnable)
		if !ok {
			e.cold = true
		} else {
			wr.RunWarmup(w.warmup)
			e.inst, e.wr = inst, wr
			e.snap = inst.Machine().Snapshot()
			e.warmup = w.warmup
		}
	}
	if e.cold {
		inst := build(name, opts)
		inst.Locks().Reset()
		read(inst, inst.Run(w.warmup, w.measure))
		return
	}
	if e.current != fullKey {
		if e.forks > 0 {
			e.inst.Machine().Restore(e.snap)
		}
		e.forks++
		e.res = e.wr.RunMeasured(e.warmup, w.measure)
		e.current = fullKey
	}
	read(e.inst, e.res)
}

// Stats reports the pool's lifetime counters (dprofd's /stats mirrors the
// same shape for its checkpoint pool).
type WarmStats struct {
	Entries int
	Forks   int
	Bytes   uint64
}

func (p *warmPool) stats() WarmStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st WarmStats
	for _, e := range p.entries {
		e.mu.Lock()
		if !e.cold && e.init {
			st.Entries++
			switch {
			case e.cp != nil:
				st.Forks += e.cp.Forks()
				st.Bytes += e.cp.Bytes()
			case e.snap != nil:
				st.Forks += e.forks
				st.Bytes += e.snap.Bytes()
			}
		}
		e.mu.Unlock()
	}
	return st
}
