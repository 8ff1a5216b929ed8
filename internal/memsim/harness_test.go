package memsim_test

import (
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/trace"
)

// Run executes the simulation with an independent JEDEC protocol checker
// riding the command stream. Any protocol violation panics with full
// command context — every test in this package doubles as a
// timing-correctness test of the scheduler.
func Run(cfg memsim.Config, wl trace.Workload) memsim.Result {
	chk := check.ForProfile(cfg.Profile)
	cfg.Observer = memsim.MultiObserver(cfg.Observer, chk)
	res := memsim.MustRun(cfg, wl)
	if err := chk.Err(); err != nil {
		panic("workload " + wl.Name + ": " + err.Error())
	}
	return res
}
