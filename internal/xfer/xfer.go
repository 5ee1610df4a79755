// Package xfer models the system-level data movement of Section 5: PCIe
// transfers between host and FPGA (batching, multi-threaded interleaving)
// and DRAM streaming of key-switching keys for parameter sets whose keys
// do not fit on chip. The double/quadruple buffering is internal/host's.
//
// The models answer the feasibility questions the paper answers
// quantitatively: does the PCIe link keep the compute modules fed, and
// does DRAM bandwidth cover ksk streaming? (Section 5.1's arithmetic:
// two Set-C key sets ≈ 151 Mb must stream within one KeySwitch interval
// ≈ 383 µs, requiring ≥ 49.28 GB/s — under the four-channel total.)
package xfer

import (
	"fmt"

	"heax/internal/core"
)

// PolyBytes returns the wire size of one RNS residue polynomial. Words
// travel as 64-bit quantities on PCIe/DRAM even though the datapath uses
// 54 bits (the paper's Section 5.1 arithmetic uses 64-bit words).
func PolyBytes(set core.ParamSet) int {
	return set.N() * 8
}

// CiphertextBytes returns the wire size of a degree-1 ciphertext at the
// top level: 2 components × k residue polynomials.
func CiphertextBytes(set core.ParamSet) int {
	return 2 * set.K * PolyBytes(set)
}

// KskStreamBytes is the per-KeySwitch key traffic when keys live in DRAM:
// two key sets (D0 | D1), each k·(k+1) residue polynomials (Section 5.1).
func KskStreamBytes(set core.ParamSet) int {
	return 2 * set.K * (set.K + 1) * PolyBytes(set)
}

// DRAMStreamReport quantifies Section 5.1's feasibility check.
type DRAMStreamReport struct {
	Set              core.ParamSet
	Board            core.Board
	BitsPerKeySwitch int
	// IntervalSec is the KeySwitch initiation interval at the board
	// clock.
	IntervalSec float64
	// RequiredGBps is the bandwidth needed to stream the keys within one
	// interval.
	RequiredGBps float64
	// AvailableGBps is the aggregate measured DRAM bandwidth.
	AvailableGBps float64
	Feasible      bool
}

// DRAMStreaming evaluates whether ksk streaming sustains the KeySwitch
// rate for a design.
func DRAMStreaming(d *core.Design) DRAMStreamReport {
	bits := KskStreamBytes(d.Set) * 8
	interval := float64(d.Arch.KeySwitchCycles(d.Set)) / (float64(d.Board.FreqMHz) * 1e6)
	gbps := float64(bits) / 8 / interval / 1e9
	return DRAMStreamReport{
		Set:              d.Set,
		Board:            d.Board,
		BitsPerKeySwitch: bits,
		IntervalSec:      interval,
		RequiredGBps:     gbps,
		AvailableGBps:    float64(d.Board.DRAMGBps),
		Feasible:         gbps <= float64(d.Board.DRAMGBps),
	}
}

// PCIeModel reproduces the Section 5.2 design: transfers are batched to
// at least one full polynomial per request and issued from eight threads
// so the link stays saturated.
type PCIeModel struct {
	Board core.Board
	// Threads is the number of concurrent transfer threads (8 in HEAX).
	Threads int
	// PerRequestOverheadUS models DMA setup per request; throughput
	// approaches the link rate as message size grows.
	PerRequestOverheadUS float64
}

// NewPCIeModel returns the paper's configuration for a board.
func NewPCIeModel(b core.Board) PCIeModel {
	return PCIeModel{Board: b, Threads: 8, PerRequestOverheadUS: 5}
}

// EffectiveGBps estimates sustained throughput for a message size:
// overlapping requests from multiple threads hide per-request overhead
// until the link saturates.
func (m PCIeModel) EffectiveGBps(messageBytes int) float64 {
	if messageBytes <= 0 {
		return 0
	}
	link := m.Board.PCIeGBps
	wire := float64(messageBytes) / (link * 1e9) // seconds on the wire
	perThread := float64(messageBytes) / (wire + m.PerRequestOverheadUS*1e-6)
	total := perThread * float64(m.Threads)
	if total > link*1e9 {
		total = link * 1e9
	}
	return total / 1e9
}

// TransferSec returns the time to move nBytes at the effective rate for
// the given per-request message size.
func (m PCIeModel) TransferSec(nBytes, messageBytes int) float64 {
	gbps := m.EffectiveGBps(messageBytes)
	if gbps == 0 {
		return 0
	}
	return float64(nBytes) / (gbps * 1e9)
}

// MULTFeedReport asks whether PCIe can feed the standalone MULT module:
// a ciphertext-ciphertext multiply consumes two ciphertexts and produces
// three components.
type MULTFeedReport struct {
	InBytesPerOp  int
	OutBytesPerOp int
	// ComputeSec is the MULT module's time per operation (all k·3 dyadic
	// component products).
	ComputeSec float64
	// TransferSec is the PCIe time for input + output at polynomial-sized
	// messages.
	TransferSec float64
	// PCIeBound reports whether the link, not compute, limits throughput
	// (true in practice for the MULT module — the reason results can stay
	// in DRAM via the memory map, Section 5.1).
	PCIeBound bool
}

// MULTFeed evaluates the PCIe feed for C-C multiplication on a design.
func MULTFeed(d *core.Design) MULTFeedReport {
	set := d.Set
	in := 2 * CiphertextBytes(set)
	out := 3 * set.K * PolyBytes(set)
	// 3 output components × k primes, each a dyadic pass of n/nc cycles
	// (α·β = 4 products pairwise-combined into 3 components; the module
	// overlaps the combination adds with the products).
	cycles := 4 * set.K * core.ModuleCycles(core.MULTModule, d.StandaloneMULTCores, set.N())
	compute := float64(cycles) / (float64(d.Board.FreqMHz) * 1e6)
	m := NewPCIeModel(d.Board)
	tx := m.TransferSec(in, PolyBytes(set)) + m.TransferSec(out, PolyBytes(set))
	return MULTFeedReport{
		InBytesPerOp:  in,
		OutBytesPerOp: out,
		ComputeSec:    compute,
		TransferSec:   tx,
		PCIeBound:     tx > compute,
	}
}

// String renders the DRAM report like the Section 5.1 prose.
func (r DRAMStreamReport) String() string {
	return fmt.Sprintf("%s on %s: %d Mb per KeySwitch in %.0f µs -> %.2f GB/s required, %d GB/s available (feasible=%v)",
		r.Set.Name, r.Board.Name, r.BitsPerKeySwitch/1_000_000, r.IntervalSec*1e6,
		r.RequiredGBps, int(r.AvailableGBps), r.Feasible)
}
