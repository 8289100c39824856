//go:build !race

// Package race reports whether the binary was built with the race
// detector, so allocation pins (testing.AllocsPerRun) can skip: the
// detector's instrumentation allocates on its own.
package race

// Enabled is true when built with -race.
const Enabled = false
