package xfer

import (
	"math"
	"strings"
	"testing"

	"heax/internal/core"
)

func setCDesign(t testing.TB) *core.Design {
	t.Helper()
	d, err := core.StandardDesign(core.BoardStratix10, core.ParamSetC)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSizes(t *testing.T) {
	if got := PolyBytes(core.ParamSetC); got != (1<<14)*8 {
		t.Fatalf("PolyBytes = %d", got)
	}
	if got := CiphertextBytes(core.ParamSetB); got != 2*4*(1<<13)*8 {
		t.Fatalf("CiphertextBytes = %d", got)
	}
	// Section 5.1: two Set-C key sets hold 2·8·9 vectors of 2^14 64-bit
	// words ≈ 151 Mb.
	bits := KskStreamBytes(core.ParamSetC) * 8
	if bits != 150_994_944 {
		t.Fatalf("ksk stream bits = %d, want 150994944 (≈151 Mb)", bits)
	}
}

// Section 5.1's feasibility arithmetic: ≈383 µs per KeySwitch, therefore
// ≥49.28 GB/s required, under the 64 GB/s the four channels provide.
func TestDRAMStreamingSetC(t *testing.T) {
	r := DRAMStreaming(setCDesign(t))
	if us := r.IntervalSec * 1e6; math.Abs(us-382.3) > 1.5 {
		t.Fatalf("interval %.1f µs, want ≈382-383", us)
	}
	if math.Abs(r.RequiredGBps-49.28) > 0.3 {
		t.Fatalf("required bandwidth %.2f GB/s, want ≈49.28", r.RequiredGBps)
	}
	if !r.Feasible {
		t.Fatal("Set-C streaming must be feasible on Stratix 10")
	}
	if !strings.Contains(r.String(), "GB/s required") {
		t.Fatal("report string malformed")
	}
}

// The same streaming demand would overwhelm the Arria 10 board's two
// channels — part of why the large set is evaluated on Stratix 10 only.
func TestDRAMStreamingInfeasibleOnA10(t *testing.T) {
	arch := core.DeriveArch(core.BoardArria10, core.ParamSetC, 8)
	d := core.NewDesign(core.BoardArria10, core.ParamSetC, arch)
	r := DRAMStreaming(d)
	if r.Feasible {
		t.Fatalf("Set-C ksk streaming should exceed Arria 10's %d GB/s (needs %.1f)",
			core.BoardArria10.DRAMGBps, r.RequiredGBps)
	}
}

func TestPCIeModelSaturation(t *testing.T) {
	m := NewPCIeModel(core.BoardStratix10)
	if m.Threads != 8 {
		t.Fatal("paper uses eight transfer threads")
	}
	// Tiny messages waste the link on per-request overhead...
	small := m.EffectiveGBps(64)
	// ...full polynomials (2^15-2^17 bytes, Section 5.2) reach the link
	// rate.
	big := m.EffectiveGBps(PolyBytes(core.ParamSetB))
	if small >= big {
		t.Fatalf("throughput should grow with message size: %.2f vs %.2f", small, big)
	}
	if big < 0.9*core.BoardStratix10.PCIeGBps {
		t.Fatalf("polynomial-sized messages should ≈saturate the link: %.2f of %.2f",
			big, core.BoardStratix10.PCIeGBps)
	}
	if m.EffectiveGBps(0) != 0 {
		t.Fatal("zero message size must yield zero throughput")
	}
	if m.TransferSec(0, 0) != 0 {
		t.Fatal("degenerate transfer must be zero")
	}
}

// The MULT module is transfer-bound, which is why HEAX keeps intermediate
// results in DRAM via the memory map rather than round-tripping over
// PCIe (Section 5.1).
func TestMULTFeedPCIeBound(t *testing.T) {
	for _, cfg := range core.EvaluatedConfigs() {
		d, err := core.StandardDesign(cfg.Board, cfg.Set)
		if err != nil {
			t.Fatal(err)
		}
		r := MULTFeed(d)
		if r.InBytesPerOp != 2*CiphertextBytes(cfg.Set) {
			t.Fatalf("input bytes wrong")
		}
		if !r.PCIeBound {
			t.Errorf("%s/%s: expected the MULT module to be PCIe-bound (compute %.1fµs, transfer %.1fµs)",
				cfg.Board.Name, cfg.Set.Name, r.ComputeSec*1e6, r.TransferSec*1e6)
		}
	}
}
