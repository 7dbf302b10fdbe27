package workload

import (
	"dprof/internal/sim"
)

// Every simulation is deterministic given its seed, which is what makes
// profiles comparable across runs and cacheable by content address: same
// workload, same options, same seed — same bytes. The shared seed option
// exposes that knob uniformly, so a profiling service can key sessions on
// it and a developer can hold the seed fixed while varying a fix.

// SeedOption is the shared deterministic-seed knob. The zero default keeps
// the workload's built-in seed, so declaring the option never changes a
// workload's default behavior.
func SeedOption() Option {
	return Option{Name: "seed", Kind: Int, Default: "0",
		Usage: "simulation seed (0 = the workload's default); same seed, same profile"}
}

// ApplySeed reads the shared seed option into a machine configuration.
// Workloads that declare SeedOption call it from Build (ApplyTopology does
// it for topology-aware workloads).
func ApplySeed(cfg Config, scfg *sim.Config) {
	if s := cfg.Int("seed"); s != 0 {
		scfg.Seed = int64(s)
	}
}
