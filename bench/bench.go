// Package bench exports the reproduction's table harness: every table
// and figure of the HEAX evaluation (Section 6) regenerated from the
// resource models, the architecture generator, the cycle-level pipeline
// simulator, and the Go CKKS baseline measured on the local machine —
// each next to the paper's reported numbers. cmd/heax-bench is a thin
// driver over this package.
package bench

import (
	ibench "heax/internal/bench"
)

// CPUMeasurements holds the locally measured CPU-baseline timings that
// fill the Tables 7-8 CPU columns.
type CPUMeasurements = ibench.CPUMeasurements

// Table is a rendered-comparison table (Render pretty-prints it).
type Table = ibench.Table

// MeasureCPU measures the CPU baseline for the Table 2 parameter sets;
// quick shortens the measurement windows.
func MeasureCPU(quick bool) (CPUMeasurements, error) { return ibench.MeasureCPU(quick) }

// AllTables renders every table and figure of the evaluation, using the
// supplied CPU measurements for the CPU columns (empty maps leave those
// columns blank).
func AllTables(cpu CPUMeasurements) (string, error) { return ibench.AllTables(cpu) }
