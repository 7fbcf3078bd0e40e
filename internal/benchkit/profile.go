package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// startProfile starts a CPU profile of one scenario — build, warm-up and
// measured runs — into dir/<name>.cpu.pprof, and returns the function
// that stops it and writes dir/<name>.allocs.pprof beside it. The alloc
// profile is the runtime's cumulative one at the end of the scenario, so
// `go tool pprof -base <previous scenario>.allocs.pprof` isolates one
// scenario of a multi-scenario run. An empty dir profiles nothing.
func startProfile(dir, name string) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("benchkit: profile dir: %w", err)
	}
	cpu, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		f, err := os.Create(filepath.Join(dir, name+".allocs.pprof"))
		if err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		runtime.GC() // settle the in-use figures the profile also carries
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("benchkit: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		return nil
	}, nil
}
