package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ResidencyRow is one type's time-averaged presence in the replayed cache.
type ResidencyRow struct {
	Type     string
	AvgLines float64
	MaxLines int
}

// ResidencyView is the §4.2 cache simulation: DProf replays the address set
// in time order through a simulated cache of the machine's total capacity —
// objects insert their cache lines at allocation, a free removes the
// object's lines ("when an object is freed in its path trace, that object's
// cache lines are removed from the simulated cache"), and an LRU policy
// evicts when the capacity overflows. The output is the count of each data
// type present in the cache, averaged over the simulation.
type ResidencyView struct {
	Rows          []ResidencyRow
	CapacityLines int
	Evictions     uint64
	ReplayedObjs  int
}

// replayEvent is one allocation or free in time order.
type replayEvent struct {
	at    uint64
	alloc bool
	typ   int32 // the object's type, as a typeIndex index
	obj   int   // index into the record slice
}

// typeIndex interns type names to dense indices, so the replay views keep
// per-type state in slices rather than maps. Types are keyed by name, the
// identity the rendered views report.
type typeIndex struct {
	byDesc map[*TypeDesc]int32
	byName map[string]int32
	names  []string
}

func newTypeIndex() *typeIndex {
	return &typeIndex{byDesc: make(map[*TypeDesc]int32), byName: make(map[string]int32)}
}

func (x *typeIndex) of(t *TypeDesc) int32 {
	if i, ok := x.byDesc[t]; ok {
		return i
	}
	i, ok := x.byName[t.Name]
	if !ok {
		i = int32(len(x.names))
		x.byName[t.Name] = i
		x.names = append(x.names, t.Name)
	}
	x.byDesc[t] = i
	return i
}

// lineTable maps cache-line addresses to int32 values. It is an
// open-addressed, linear-probing hash table with backward-shift deletion,
// the layout of the coherence directory in package cache, so deletions
// leave no tombstones behind. Keys are stored as line+1 so the zero key
// means "empty"; line 0 is a valid address.
type lineTable struct {
	entries []lineEntry
	mask    uint64
	shift   uint
	n       int // occupied entries
}

type lineEntry struct {
	key uint64 // line+1; 0 = empty
	val int32
}

// newLineTable returns a table with room for about capHint lines before
// its first grow.
func newLineTable(capHint int) *lineTable {
	size := uint64(16)
	for int(size)*3/4 < capHint {
		size <<= 1
	}
	t := &lineTable{}
	t.resize(size)
	return t
}

func (t *lineTable) resize(size uint64) {
	t.entries = make([]lineEntry, size)
	t.mask = size - 1
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// fibonacci multiplicative hashing constant (2^64 / phi, odd).
const lineHashMul = 0x9E3779B97F4A7C15

func (t *lineTable) slot(key uint64) uint64 { return (key * lineHashMul) >> t.shift }

// putIfAbsent maps line to val unless line is already present, and returns
// the value line then holds and whether it was already present.
func (t *lineTable) putIfAbsent(line uint64, val int32) (int32, bool) {
	key := line + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		e := &t.entries[i]
		if e.key == key {
			return e.val, true
		}
		if e.key == 0 {
			e.key, e.val = key, val
			t.n++
			if uint64(t.n)*4 > uint64(len(t.entries))*3 {
				t.grow()
			}
			return val, false
		}
	}
}

// del removes line and returns its value, or false when it is absent.
func (t *lineTable) del(line uint64) (int32, bool) {
	key := line + 1
	i := t.slot(key)
	for {
		e := t.entries[i]
		if e.key == key {
			break
		}
		if e.key == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
	val := t.entries[i].val
	t.n--
	for {
		t.entries[i] = lineEntry{}
		j := i
		for {
			j = (j + 1) & t.mask
			e := t.entries[j]
			if e.key == 0 {
				return val, true
			}
			// The entry at j may move back to i only if its ideal slot is
			// cyclically outside (i, j]; otherwise the move would break its
			// probe chain.
			if (j-t.slot(e.key))&t.mask >= (j-i)&t.mask {
				t.entries[i] = e
				i = j
				break
			}
		}
	}
}

// forEach visits every entry, in table order.
func (t *lineTable) forEach(fn func(line uint64, val int32)) {
	for _, e := range t.entries {
		if e.key != 0 {
			fn(e.key-1, e.val)
		}
	}
}

func (t *lineTable) grow() {
	old := t.entries
	t.resize(uint64(len(old)) * 2)
	t.n = 0
	for _, e := range old {
		if e.key != 0 {
			t.putIfAbsent(e.key-1, e.val)
		}
	}
}

// lruCache is the §4.2 mini-simulation's cache: a capacity-bounded set of
// lines with LRU eviction, tracking per-type resident counts. Lines live in
// a slab of slots threaded on an intrusive recency list, found through a
// lineTable, so insert, touch, remove and evict are all O(1), and the only
// allocations are the amortized growth of the slab and the index.
type lruCache struct {
	cap   int
	index *lineTable // line -> slot
	// slots[0] is the list sentinel: its next is the most recently used
	// slot and its prev the least. Released slots chain through next from
	// free (0 = none).
	slots     []lruSlot
	free      int32
	counts    []int // resident lines per type index
	evictions uint64
}

type lruSlot struct {
	line       uint64
	typ        int32
	prev, next int32
}

// newLRUCache returns an empty cache of capacity lines for types type
// indices.
func newLRUCache(capacity, types int) *lruCache {
	return &lruCache{
		cap:    capacity,
		index:  newLineTable(0),
		slots:  make([]lruSlot, 1),
		counts: make([]int, types),
	}
}

// insert makes line the most recently used, adding it for type typ when it
// is not resident (evicting the LRU line when the cache is full). A line
// already resident keeps the type that added it. insert reports whether it
// added the line.
func (c *lruCache) insert(line uint64, typ int32) bool {
	s := c.free
	if s == 0 {
		s = int32(len(c.slots))
	}
	if old, had := c.index.putIfAbsent(line, s); had {
		c.unlink(old)
		c.pushFront(old)
		return false
	}
	if s == c.free {
		c.free = c.slots[s].next
	} else {
		if len(c.slots) == cap(c.slots) {
			// Double rather than let append grow a large slab by a
			// quarter at a time, copying it several times over.
			c.slots = slices.Grow(c.slots, len(c.slots))
		}
		c.slots = append(c.slots, lruSlot{})
	}
	if resident := c.index.n - 1; resident >= c.cap {
		if resident > 0 { // an empty cache (capacity 0) has no victim
			victim := c.slots[0].prev
			c.index.del(c.slots[victim].line)
			c.release(victim)
		}
		c.evictions++
	}
	c.slots[s] = lruSlot{line: line, typ: typ}
	c.pushFront(s)
	c.counts[typ]++
	return true
}

// remove drops line if it is resident.
func (c *lruCache) remove(line uint64) {
	if s, ok := c.index.del(line); ok {
		c.release(s)
	}
}

func (c *lruCache) release(s int32) {
	c.counts[c.slots[s].typ]--
	c.unlink(s)
	c.slots[s].next = c.free
	c.free = s
}

func (c *lruCache) unlink(s int32) {
	sl := &c.slots[s]
	c.slots[sl.prev].next = sl.next
	c.slots[sl.next].prev = sl.prev
}

func (c *lruCache) pushFront(s int32) {
	head := c.slots[0].next
	c.slots[s].prev, c.slots[s].next = 0, head
	c.slots[head].prev = s
	c.slots[0].next = s
}

// DefaultReplayObjects is the standard sampling bound for the §4.2 replay
// views (working set and cache residency): every consumer — the Session
// report, the HTTP API, tests — replays at the same bound so their numbers
// agree for the same profile.
const DefaultReplayObjects = 200_000

// CacheResidency runs the §4.2 replay over the profiler's address set.
func (p *Profiler) CacheResidency(maxObjects int) *ResidencyView {
	return CacheResidencyOf(p, maxObjects)
}

// CacheResidencyOf runs the §4.2 replay over any source's address set. It
// samples at most maxObjects records (weighted uniformly, as the paper picks
// address sets randomly) and replays their allocation and free events in
// time order through a cache of the machine's combined capacity.
func CacheResidencyOf(src ProfileSource, maxObjects int) *ResidencyView {
	cfg := src.CacheConfig()
	capLines := int((cfg.L2Size*uint64(src.Topology().NumCores()) + cfg.L3Size) / cfg.LineSize)
	v := &ResidencyView{CapacityLines: capLines}

	objs := src.AddressSet().Objects()
	step := 1
	if maxObjects > 0 && len(objs) > maxObjects {
		step = (len(objs) + maxObjects - 1) / maxObjects
	}
	types := newTypeIndex()
	events := make([]replayEvent, 0, 2*((len(objs)+step-1)/step))
	for i := 0; i < len(objs); i += step {
		rec := &objs[i]
		v.ReplayedObjs++
		ti := types.of(rec.Type)
		events = append(events, replayEvent{at: rec.AllocAt, alloc: true, typ: ti, obj: i})
		if !rec.Live() {
			events = append(events, replayEvent{at: rec.FreeAt, alloc: false, typ: ti, obj: i})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].alloc && !events[b].alloc // alloc before same-time free
	})
	if len(events) == 0 {
		return v
	}

	cache := newLRUCache(capLines, len(types.names))
	integral := make([]float64, len(types.names))
	maxSeen := make([]int, len(types.names))
	// seen lists, in order, the types that have added a new line (touching
	// a resident line does not count). The types seen when the last event
	// begins get rows.
	var seen []int32
	isSeen := make([]bool, len(types.names))
	rows := 0
	last := events[0].at
	span := events[len(events)-1].at - events[0].at
	for _, ev := range events {
		dt := float64(ev.at - last)
		for _, ti := range seen {
			integral[ti] += dt * float64(cache.counts[ti])
		}
		rows = len(seen)
		last = ev.at

		rec := &objs[ev.obj]
		lineLo := rec.Addr / 64
		lineHi := (rec.Addr + rec.Type.ObjSize - 1) / 64
		for l := lineLo; l <= lineHi; l++ {
			if !ev.alloc {
				cache.remove(l)
			} else if cache.insert(l, ev.typ) && !isSeen[ev.typ] {
				isSeen[ev.typ] = true
				seen = append(seen, ev.typ)
			}
		}
		if ev.alloc {
			if n := cache.counts[ev.typ]; n > maxSeen[ev.typ] {
				maxSeen[ev.typ] = n
			}
		}
	}
	v.Evictions = cache.evictions
	for _, ti := range seen[:rows] {
		row := ResidencyRow{Type: types.names[ti], MaxLines: maxSeen[ti]}
		if span > 0 {
			row.AvgLines = integral[ti] / float64(span)
		} else {
			row.AvgLines = float64(cache.counts[ti])
		}
		v.Rows = append(v.Rows, row)
	}
	sort.Slice(v.Rows, func(i, j int) bool {
		if v.Rows[i].AvgLines != v.Rows[j].AvgLines {
			return v.Rows[i].AvgLines > v.Rows[j].AvgLines
		}
		return v.Rows[i].Type < v.Rows[j].Type
	})
	return v
}

// String renders the residency view.
func (v *ResidencyView) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed cache residency (capacity %d lines, %d objects, %d evictions)\n",
		v.CapacityLines, v.ReplayedObjs, v.Evictions)
	fmt.Fprintf(&b, "%-16s %12s %10s\n", "Type name", "Avg lines", "Max lines")
	for _, r := range v.Rows {
		if r.AvgLines < 0.5 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %12.1f %10d\n", r.Type, r.AvgLines, r.MaxLines)
	}
	return b.String()
}

// AvgLinesFor returns the time-averaged resident lines for a type name.
func (v *ResidencyView) AvgLinesFor(name string) float64 {
	for _, r := range v.Rows {
		if r.Type == name {
			return r.AvgLines
		}
	}
	return 0
}
