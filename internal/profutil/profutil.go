// Package profutil wraps runtime/pprof for the CLIs: every binary with
// a solver hot path (mtopt, phcopt) exposes -cpuprofile and -memprofile
// flags through these two helpers, so profiles are collected
// identically everywhere.
package profutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path and returns the stop
// function to defer.  An empty path is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path, running the GC first
// so the numbers reflect live and cumulative allocations accurately.
// An empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
