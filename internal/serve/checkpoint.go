package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"dprof/internal/core"
)

// The warm-start checkpoint pool: dprofd keeps machine checkpoints captured
// at the warmup boundary (core.Session.Warmup) and forks measured phases
// from them, so requests that differ only in measured length skip the warmup
// simulation entirely. Checkpoints are content-addressed by the profile key
// minus its measured window — everything that shapes machine state at the
// boundary (workload, options, rate, views, history targets, warmup length)
// addresses the checkpoint; the measure does not, because the checkpoint is
// taken with the measured window still unarmed. Forks are byte-identical to
// cold runs (the core warm-start contract), so the body cache and the
// replica ring never observe the difference.

// warmAddress returns the checkpoint content address for a normalized
// profile key: a SHA-256 over the key with the measured length zeroed.
func (k profileKey) warmAddress() string {
	wk := k
	wk.MeasureCycles = 0
	raw, err := json.Marshal(wk)
	if err != nil {
		panic(fmt.Sprintf("serve: profile key not marshalable: %v", err)) // plain data; cannot happen
	}
	sum := sha256.Sum256(raw)
	return "warm/" + hex.EncodeToString(sum[:])
}

// ckptEntry holds one warmed session. mu serializes every fork and the
// document render that reads the forked session's state — a checkpoint
// restores into the machine it was captured from, so its forks cannot
// overlap (parallelism comes from distinct entries, which share nothing).
type ckptEntry struct {
	mu    sync.Mutex
	key   string
	cp    *core.Checkpoint // nil until captured
	cold  bool             // Warmup refused (non-warm workload): stop retrying
	bytes int64
	el    *list.Element // pool LRU position; nil once evicted
}

// ckptPool is the bounded in-memory checkpoint pool. The pool lock guards
// the index, the recency list, and the byte accounting — never a simulation:
// capture and fork run under the entry lock only, so a long warmup on one
// key never blocks forks on another.
type ckptPool struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *ckptEntry
	entries  map[string]*ckptEntry

	captures  uint64 // warmup phases simulated and checkpointed
	forks     uint64 // measured phases forked from a checkpoint
	evictions uint64 // checkpoints dropped to fit the byte budget
}

func newCkptPool(maxBytes int64) *ckptPool {
	return &ckptPool{maxBytes: maxBytes, ll: list.New(), entries: make(map[string]*ckptEntry)}
}

// entry returns the pool slot for a warm address, creating it on first use
// and marking it most recently used. The caller locks the entry before
// touching its checkpoint.
func (p *ckptPool) entry(key string) *ckptEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key]; ok {
		if e.el != nil {
			p.ll.MoveToFront(e.el)
		}
		return e
	}
	e := &ckptEntry{key: key}
	e.el = p.ll.PushFront(e)
	p.entries[key] = e
	return e
}

// captured records a fresh checkpoint's retained bytes and evicts from the
// cold end until the pool fits its budget again. A single checkpoint larger
// than the whole budget is evicted immediately — the bound is hard — but the
// caller's fork still proceeds: eviction only forgets the checkpoint, it
// never invalidates one a request is using.
func (p *ckptPool) captured(e *ckptEntry, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.captures++
	e.bytes = bytes
	p.bytes += bytes
	for p.bytes > p.maxBytes && p.ll.Len() > 0 {
		oldest := p.ll.Back()
		victim := oldest.Value.(*ckptEntry)
		p.ll.Remove(oldest)
		victim.el = nil
		delete(p.entries, victim.key)
		p.bytes -= victim.bytes
		p.evictions++
	}
}

func (p *ckptPool) forked() {
	p.mu.Lock()
	p.forks++
	p.mu.Unlock()
}

// statsMap is the GET /stats "checkpoints" section.
func (p *ckptPool) statsMap() map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return map[string]any{
		"entries":   p.ll.Len(),
		"captures":  p.captures,
		"forks":     p.forks,
		"bytes":     p.bytes,
		"max_bytes": p.maxBytes,
		"evictions": p.evictions,
	}
}

// runProfileWarm serves a profile request from the checkpoint pool: capture
// the warmup boundary on first use of a warm address, fork the measured
// phase from it on every use. handled=false means the workload cannot
// warm-start (it lacks the warm contract) and the caller must run the cold
// path; the refusal is remembered so later requests skip straight to cold
// without re-building a session.
func (s *Server) runProfileWarm(k profileKey) (body []byte, handled bool, err error) {
	e := s.ckpts.entry(k.warmAddress())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cold {
		return nil, false, nil
	}
	if e.cp == nil {
		sess, err := s.buildSession(k, nil)
		if err != nil {
			// The request's fault (bad options, unbuildable workload):
			// surface it — the cold path would fail identically.
			return nil, true, err
		}
		cp, err := sess.Warmup()
		if err != nil {
			e.cold = true
			return nil, false, nil
		}
		e.cp = cp
		s.ckpts.captured(e, int64(cp.Bytes()))
	}
	// One measured phase from the warmed boundary — the first fork continues
	// the capture's machine in place, later forks restore the snapshot.
	s.simulations.Add(1)
	s.ckpts.forked()
	e.cp.Fork(k.MeasureCycles)
	body, err = renderProfile(e.cp.Session(), k)
	return body, true, err
}
