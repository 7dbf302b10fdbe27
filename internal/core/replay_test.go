package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dprof/internal/cache"
	"dprof/internal/sim"
)

func TestCacheResidencyTracksLiveObjects(t *testing.T) {
	m, a, p := collectorWorld(2)
	typ := a.RegisterType("resident_r", 128, "")
	m.Schedule(0, 0, func(c *sim.Ctx) {
		// Two objects live for a long stretch, one freed immediately.
		x := a.Alloc(c, typ)
		y := a.Alloc(c, typ)
		z := a.Alloc(c, typ)
		a.Free(c, z)
		c.Compute(1_000_000)
		a.Free(c, x)
		a.Free(c, y)
	})
	m.RunAll()
	v := p.CacheResidency(0)
	if v.ReplayedObjs < 3 {
		t.Fatalf("replayed %d objects", v.ReplayedObjs)
	}
	avg := v.AvgLinesFor("resident_r")
	// Two 128-byte objects (2 lines each) resident for almost the whole
	// span: expect close to 4 average lines.
	if avg < 3 || avg > 5 {
		t.Fatalf("avg lines = %.2f, want ~4", avg)
	}
	if !strings.Contains(v.String(), "resident_r") {
		t.Error("render missing type")
	}
}

func TestCacheResidencyFreeRemovesLines(t *testing.T) {
	m, a, p := collectorWorld(1)
	typ := a.RegisterType("transient", 128, "")
	m.Schedule(0, 0, func(c *sim.Ctx) {
		// Objects freed right away: near-zero average residency.
		for i := 0; i < 50; i++ {
			x := a.Alloc(c, typ)
			a.Free(c, x)
			c.Compute(10_000)
		}
	})
	m.RunAll()
	v := p.CacheResidency(0)
	if avg := v.AvgLinesFor("transient"); avg > 1 {
		t.Fatalf("freed-immediately objects average %.2f resident lines", avg)
	}
}

func TestCacheResidencyEvictsAtCapacity(t *testing.T) {
	const a, b = 0, 1
	c := newLRUCache(2, 2)
	c.insert(1, a)
	c.insert(2, a)
	c.insert(3, b) // evicts line 1 (LRU)
	if c.evictions != 1 {
		t.Fatalf("evictions = %d", c.evictions)
	}
	if c.counts[a] != 1 || c.counts[b] != 1 {
		t.Fatalf("counts = %v", c.counts)
	}
	// Touch line 2 then insert: line 3 is now LRU.
	c.insert(2, a)
	c.insert(4, b)
	if slices.Contains(c.recency(), 3) {
		t.Fatal("LRU order not respected")
	}
}

// recency returns the resident lines, most recently used first.
func (c *lruCache) recency() []uint64 {
	var out []uint64
	for s := c.slots[0].next; s != 0; s = c.slots[s].next {
		out = append(out, c.slots[s].line)
	}
	return out
}

// modelLRU is the naive reference for lruCache: lines in recency order,
// most recently used first, with linear-time lookups.
type modelLRU struct {
	cap       int
	lines     []uint64
	typ       map[uint64]int32
	counts    []int
	evictions uint64
}

// insert mirrors lruCache.insert and returns whether it added the line and
// the line it evicted (evicted false when none).
func (m *modelLRU) insert(line uint64, typ int32) (added bool, victim uint64, evicted bool) {
	if i := slices.Index(m.lines, line); i >= 0 {
		m.lines = slices.Insert(slices.Delete(m.lines, i, i+1), 0, line)
		return false, 0, false
	}
	if len(m.lines) >= m.cap {
		victim = m.lines[len(m.lines)-1]
		m.remove(victim)
		m.evictions++
		evicted = true
	}
	m.lines = slices.Insert(m.lines, 0, line)
	m.typ[line] = typ
	m.counts[typ]++
	return true, victim, evicted
}

func (m *modelLRU) remove(line uint64) {
	if i := slices.Index(m.lines, line); i >= 0 {
		m.lines = slices.Delete(m.lines, i, i+1)
		m.counts[m.typ[line]]--
		delete(m.typ, line)
	}
}

// TestLRUCacheMatchesModel drives the replay cache and the naive model
// through the same random inserts (new lines, touches of resident ones,
// inserts that evict at capacity) and removes, and compares per-type
// counts, evictions, the victim and the whole recency order at every step.
// The small line space, including line 0, keeps the index's probe chains
// colliding and its backward-shift deletions busy.
func TestLRUCacheMatchesModel(t *testing.T) {
	const types, lines = 3, 24
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 8, 16} {
		c := newLRUCache(capacity, types)
		m := &modelLRU{cap: capacity, typ: map[uint64]int32{}, counts: make([]int, types)}
		for step := 0; step < 5000; step++ {
			line := uint64(rng.Intn(lines))
			if rng.Intn(3) == 0 {
				c.remove(line)
				m.remove(line)
			} else {
				typ := int32(rng.Intn(types))
				added, victim, evicted := m.insert(line, typ)
				if got := c.insert(line, typ); got != added {
					t.Fatalf("cap %d step %d: insert(%d) added = %v, model %v", capacity, step, line, got, added)
				}
				if evicted && slices.Contains(c.recency(), victim) {
					t.Fatalf("cap %d step %d: victim %d still resident", capacity, step, victim)
				}
			}
			if got := c.recency(); !slices.Equal(got, m.lines) {
				t.Fatalf("cap %d step %d: recency %v, model %v", capacity, step, got, m.lines)
			}
			if !slices.Equal(c.counts, m.counts) || c.evictions != m.evictions || c.index.n != len(m.lines) {
				t.Fatalf("cap %d step %d: counts %v evictions %d indexed %d, model %v %d %d",
					capacity, step, c.counts, c.evictions, c.index.n, m.counts, m.evictions, len(m.lines))
			}
		}
	}
}

// smallCacheSource reports a shrunken cache so the replay overflows it.
type smallCacheSource struct {
	ProfileSource
	cfg cache.Config
}

func (s smallCacheSource) CacheConfig() cache.Config { return s.cfg }

func TestCacheResidencyOfEvictsBelowCapacity(t *testing.T) {
	m, a, p := collectorWorld(1)
	typ := a.RegisterType("crowded", 128, "")
	m.Schedule(0, 0, func(c *sim.Ctx) {
		// 64 two-line objects live together: 128 lines.
		var objs []uint64
		for i := 0; i < 64; i++ {
			objs = append(objs, a.Alloc(c, typ))
			c.Compute(1_000)
		}
		c.Compute(1_000_000)
		for _, x := range objs {
			a.Free(c, x)
		}
	})
	m.RunAll()
	cfg := p.CacheConfig()
	cfg.L2Size, cfg.L3Size = 16*cfg.LineSize, 16*cfg.LineSize // 32 lines
	v := CacheResidencyOf(smallCacheSource{p, cfg}, 0)
	if v.CapacityLines != 32 {
		t.Fatalf("capacity = %d lines, want 32", v.CapacityLines)
	}
	if v.Evictions == 0 {
		t.Fatal("no evictions with 128 live lines in a 32-line cache")
	}
	var total float64
	for _, r := range v.Rows {
		if r.MaxLines > v.CapacityLines {
			t.Errorf("%s peaks at %d lines, above the %d-line capacity", r.Type, r.MaxLines, v.CapacityLines)
		}
		total += r.AvgLines
	}
	if total > float64(v.CapacityLines) {
		t.Errorf("average residency %.1f lines exceeds the capacity", total)
	}
	if avg := v.AvgLinesFor("crowded"); avg < 16 {
		t.Errorf("crowded averages %.1f lines; the cache is full of it for most of the run", avg)
	}
}

func TestCacheResidencyEmptyAddressSet(t *testing.T) {
	_, _, p := collectorWorld(1)
	v := p.CacheResidency(0)
	// Statics seeded by Attach still replay; the view must not crash and
	// statics (alloc time 0, never freed) should be resident.
	if v.CapacityLines == 0 {
		t.Fatal("capacity not computed")
	}
}
