package sim

import (
	"testing"
	"testing/quick"

	"dprof/internal/sym"
)

func testMachine(cores int) *Machine {
	cfg := DefaultConfig()
	cfg.Cores = cores
	return New(cfg)
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	m := testMachine(2)
	var order []int
	m.Schedule(0, 300, func(c *Ctx) { order = append(order, 3) })
	m.Schedule(1, 100, func(c *Ctx) { order = append(order, 1) })
	m.Schedule(0, 200, func(c *Ctx) { order = append(order, 2) })
	if n := m.RunAll(); n != 3 {
		t.Fatalf("ran %d tasks, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	m := testMachine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		m.Schedule(0, 50, func(c *Ctx) { order = append(order, i) })
	}
	m.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time tasks not FIFO: %v", order)
		}
	}
}

func TestBusyCoreDelaysNextTask(t *testing.T) {
	m := testMachine(1)
	var secondStart uint64
	m.Schedule(0, 0, func(c *Ctx) { c.Compute(5000) })
	m.Schedule(0, 100, func(c *Ctx) { secondStart = c.Now() })
	m.RunAll()
	if secondStart != 5000 {
		t.Fatalf("second task started at %d, want 5000 (after the busy first task)", secondStart)
	}
}

func TestIdleAccounting(t *testing.T) {
	m := testMachine(1)
	m.Schedule(0, 1000, func(c *Ctx) { c.Compute(10) })
	m.RunAll()
	if got := m.Core(0).Idle(); got != 1000 {
		t.Fatalf("idle = %d, want 1000", got)
	}
}

func TestRunUntil(t *testing.T) {
	m := testMachine(1)
	ran := 0
	m.Schedule(0, 10, func(c *Ctx) { ran++ })
	m.Schedule(0, 2000, func(c *Ctx) { ran++ })
	if n := m.Run(1000); n != 1 {
		t.Fatalf("Run(1000) executed %d tasks, want 1", n)
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", m.Pending())
	}
	m.RunAll()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestAccessAdvancesClockByLatency(t *testing.T) {
	m := testMachine(1)
	cfg := m.Hier.Config()
	m.Schedule(0, 0, func(c *Ctx) {
		c.Read(0x1000, 8) // cold: DRAM
		if c.Now() != uint64(cfg.LatDRAM) {
			t.Fatalf("clock after cold read = %d, want %d", c.Now(), cfg.LatDRAM)
		}
		c.Read(0x1000, 8) // L1
		if c.Now() != uint64(cfg.LatDRAM+cfg.LatL1) {
			t.Fatalf("clock after warm read = %d", c.Now())
		}
	})
	m.RunAll()
}

func TestAccessSplitsAcrossLines(t *testing.T) {
	m := testMachine(1)
	var events []AccessEvent
	m.AddAccessHook(func(c *Ctx, ev *AccessEvent) { events = append(events, *ev) })
	m.Schedule(0, 0, func(c *Ctx) {
		c.Write(0x1000-8, 16) // straddles two lines
	})
	m.RunAll()
	if len(events) != 2 {
		t.Fatalf("line-straddling access produced %d events, want 2", len(events))
	}
	if events[0].Size != 8 || events[1].Size != 8 {
		t.Fatalf("split sizes = %d,%d, want 8,8", events[0].Size, events[1].Size)
	}
	if events[1].Addr != 0x1000 {
		t.Fatalf("second fragment addr = %#x, want 0x1000", events[1].Addr)
	}
}

func TestZeroSizeAccessIsNoop(t *testing.T) {
	m := testMachine(1)
	hits := 0
	m.AddAccessHook(func(c *Ctx, ev *AccessEvent) { hits++ })
	m.Schedule(0, 0, func(c *Ctx) { c.Read(0x1000, 0) })
	m.RunAll()
	if hits != 0 {
		t.Fatal("zero-size access generated an event")
	}
}

func TestEnterLeaveStack(t *testing.T) {
	m := testMachine(1)
	m.Schedule(0, 0, func(c *Ctx) {
		if c.Fn() != sym.None {
			t.Fatal("fresh stack should report None")
		}
		pc := c.Enter("outer")
		if sym.Name(c.Fn()) != "outer" {
			t.Fatal("Enter did not set Fn")
		}
		inner := c.Enter("inner")
		if sym.Name(c.Fn()) != "inner" {
			t.Fatal("nested Enter did not set Fn")
		}
		c.Leave(inner)
		c.Leave(pc)
		if c.Fn() != sym.None {
			t.Fatal("stack not empty after Leaves")
		}
	})
	m.RunAll()
}

func TestLeaveMismatchPanics(t *testing.T) {
	m := testMachine(1)
	m.Schedule(0, 0, func(c *Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched Leave did not panic")
			}
			c.Core.stack = nil
		}()
		c.Enter("a")
		c.Leave(sym.Intern("b"))
	})
	m.RunAll()
}

func TestHooksSeeCurrentFunction(t *testing.T) {
	m := testMachine(1)
	var pcs []sym.PC
	m.AddAccessHook(func(c *Ctx, ev *AccessEvent) { pcs = append(pcs, ev.PC) })
	m.Schedule(0, 0, func(c *Ctx) {
		defer c.Leave(c.Enter("reader_fn"))
		c.Read(0x2000, 8)
	})
	m.RunAll()
	if len(pcs) != 1 || sym.Name(pcs[0]) != "reader_fn" {
		t.Fatalf("hook saw %v", pcs)
	}
}

func TestHookRecursionSuppressed(t *testing.T) {
	m := testMachine(1)
	calls := 0
	m.AddAccessHook(func(c *Ctx, ev *AccessEvent) {
		calls++
		// A hook issuing an access must not re-trigger hooks.
		c.Read(0x9000, 8)
	})
	m.Schedule(0, 0, func(c *Ctx) { c.Read(0x3000, 8) })
	m.RunAll()
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1 (no recursion)", calls)
	}
}

func TestWorkHookAttribution(t *testing.T) {
	m := testMachine(1)
	var got uint64
	var fn sym.PC
	m.AddWorkHook(func(c *Ctx, pc sym.PC, cycles uint64) {
		got += cycles
		fn = pc
	})
	m.Schedule(0, 0, func(c *Ctx) {
		defer c.Leave(c.Enter("busy_fn"))
		c.Compute(123)
	})
	m.RunAll()
	if got != 123 || sym.Name(fn) != "busy_fn" {
		t.Fatalf("work hook saw %d cycles in %s", got, sym.Name(fn))
	}
}

func TestChargeOverhead(t *testing.T) {
	m := testMachine(1)
	m.Schedule(0, 0, func(c *Ctx) {
		c.ChargeOverhead("interrupt", 500)
		c.ChargeOverhead("interrupt", 250)
		c.ChargeOverhead("memory", 100)
	})
	m.RunAll()
	if m.Overhead["interrupt"] != 750 || m.Overhead["memory"] != 100 {
		t.Fatalf("overhead = %v", m.Overhead)
	}
	if m.Core(0).Now() != 850 {
		t.Fatalf("overhead cycles must delay the core: now = %d", m.Core(0).Now())
	}
}

func TestSpawnRelativeToCoreClock(t *testing.T) {
	m := testMachine(2)
	var startedAt uint64
	m.Schedule(0, 0, func(c *Ctx) {
		c.Compute(1000)
		c.Spawn(1, 50, func(c2 *Ctx) { startedAt = c2.Now() })
	})
	m.RunAll()
	if startedAt != 1050 {
		t.Fatalf("spawned task started at %d, want 1050", startedAt)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		m := testMachine(4)
		for core := 0; core < 4; core++ {
			core := core
			m.Schedule(core, 0, func(c *Ctx) {
				for i := 0; i < 100; i++ {
					c.Read(uint64(c.Rand().Intn(1<<14)), 8)
				}
			})
		}
		m.RunAll()
		return m.MaxCoreTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different final time: %d vs %d", a, b)
	}
}

func TestQuickClockMonotonic(t *testing.T) {
	prop := func(sizes []uint8) bool {
		m := testMachine(1)
		ok := true
		m.Schedule(0, 0, func(c *Ctx) {
			prev := c.Now()
			for _, s := range sizes {
				c.Read(uint64(s)*64, uint32(s%9))
				if c.Now() < prev {
					ok = false
				}
				prev = c.Now()
			}
		})
		m.RunAll()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRetiredMatchesHookCount(t *testing.T) {
	prop := func(n uint8) bool {
		m := testMachine(1)
		count := uint64(0)
		m.AddAccessHook(func(c *Ctx, ev *AccessEvent) { count++ })
		m.Schedule(0, 0, func(c *Ctx) {
			for i := 0; i < int(n); i++ {
				c.Read(uint64(i)*64, 8)
			}
		})
		m.RunAll()
		return m.Core(0).Retired() == count && count == uint64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleBadCorePanics(t *testing.T) {
	m := testMachine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Schedule(5, 0, func(c *Ctx) {})
}

func TestWindowTicksFireAtBoundaries(t *testing.T) {
	m := testMachine(2)
	var boundaries []uint64
	m.SetWindowTicks(100, func(b uint64) { boundaries = append(boundaries, b) })
	// Events at 50, 100 (exactly a boundary: belongs to window 1), 250.
	var order []string
	m.Schedule(0, 50, func(c *Ctx) { order = append(order, "e50") })
	m.Schedule(1, 100, func(c *Ctx) { order = append(order, "e100") })
	m.Schedule(0, 250, func(c *Ctx) { order = append(order, "e250") })
	m.RunAll()
	if want := []uint64{100, 200}; len(boundaries) != len(want) ||
		boundaries[0] != want[0] || boundaries[1] != want[1] {
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
	if len(order) != 3 || order[0] != "e50" || order[1] != "e100" || order[2] != "e250" {
		t.Fatalf("dispatch order = %v", order)
	}
}

func TestWindowTicksInstallMidRunSkipsPastBoundaries(t *testing.T) {
	m := testMachine(1)
	m.Schedule(0, 550, func(c *Ctx) {})
	m.Run(600)
	var boundaries []uint64
	m.SetWindowTicks(100, func(b uint64) { boundaries = append(boundaries, b) })
	m.Schedule(0, 750, func(c *Ctx) {})
	m.RunAll()
	// Installed at watermark 550: the first boundary is 600, and boundaries
	// 100..500 are never replayed.
	if want := []uint64{600, 700}; len(boundaries) != 2 ||
		boundaries[0] != want[0] || boundaries[1] != want[1] {
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
	m.SetWindowTicks(0, nil)
	m.Schedule(0, 1950, func(c *Ctx) {})
	m.RunAll()
	if len(boundaries) != 2 {
		t.Fatalf("ticks fired after removal: %v", boundaries)
	}
}

// --- window-boundary edge cases ---

func TestWindowTicksZeroLengthClears(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	m.SetWindowTicks(100, func(b uint64) { boundaries = append(boundaries, b) })
	// Length 0 clears even with a non-nil callback.
	m.SetWindowTicks(0, func(b uint64) { boundaries = append(boundaries, b) })
	m.Schedule(0, 450, func(c *Ctx) {})
	m.RunAll()
	if len(boundaries) != 0 {
		t.Fatalf("cleared ticks still fired: %v", boundaries)
	}
}

func TestWindowTicksBeyondRunEnd(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	m.SetWindowTicks(1000, func(b uint64) { boundaries = append(boundaries, b) })
	// Every event finishes before the first boundary: no tick may fire, and
	// in particular none fires retroactively when the queue drains.
	m.Schedule(0, 300, func(c *Ctx) {})
	m.Schedule(0, 700, func(c *Ctx) {})
	m.RunAll()
	if len(boundaries) != 0 {
		t.Fatalf("boundary past run end fired: %v", boundaries)
	}
}

func TestWindowTicksBoundaryAtFinalEvent(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	var dispatched bool
	m.SetWindowTicks(100, func(b uint64) {
		if b == 300 && dispatched {
			t.Error("boundary 300 fired after the event scheduled at 300")
		}
		boundaries = append(boundaries, b)
	})
	// The final event sits exactly on a boundary: the tick belongs to the
	// closing window, so it fires before the event dispatches.
	m.Schedule(0, 300, func(c *Ctx) { dispatched = true })
	m.RunAll()
	if want := []uint64{100, 200, 300}; len(boundaries) != len(want) ||
		boundaries[0] != want[0] || boundaries[1] != want[1] || boundaries[2] != want[2] {
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
}

func TestWindowTicksReArmMidRun(t *testing.T) {
	m := testMachine(1)
	var first []uint64
	m.SetWindowTicks(100, func(b uint64) { first = append(first, b) })
	m.Schedule(0, 250, func(c *Ctx) {})
	m.RunAll()
	if want := []uint64{100, 200}; len(first) != 2 || first[0] != want[0] || first[1] != want[1] {
		t.Fatalf("first arm boundaries = %v, want %v", first, want)
	}
	m.SetWindowTicks(0, nil)
	// Re-arming at watermark 250 resumes from the next multiple, 300; the
	// already-fired 100 and 200 are not replayed.
	var second []uint64
	m.SetWindowTicks(100, func(b uint64) { second = append(second, b) })
	m.Schedule(0, 460, func(c *Ctx) {})
	m.RunAll()
	if want := []uint64{300, 400}; len(second) != 2 || second[0] != want[0] || second[1] != want[1] {
		t.Fatalf("re-armed boundaries = %v, want %v", second, want)
	}
}

// --- per-core streams ---

func TestPerCoreRandStreams(t *testing.T) {
	draw := func(m *Machine) [][]int64 {
		out := make([][]int64, m.NumCores())
		for i := range out {
			r := m.Core(i).Rand()
			for j := 0; j < 4; j++ {
				out[i] = append(out[i], r.Int63())
			}
		}
		return out
	}
	a, b := draw(testMachine(2)), draw(testMachine(2))
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("core %d draw %d not reproducible: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	if a[0][0] == a[1][0] {
		t.Fatal("cores 0 and 1 share a stream")
	}
}
