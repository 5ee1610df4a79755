// Package hwsim simulates the HEAX hardware modules at the dataflow
// level: polynomials live in banked memory elements (MEs) with one read
// and one write per cycle, butterflies run on the 54-bit core datapath of
// Algorithm 2, and cycle counts are accumulated from the actual access
// schedule rather than assumed.
//
// The simulator serves two purposes in the reproduction: it proves the
// architecture computes the same results as the reference software
// (internal/ntt, internal/ckks), and it validates the closed-form cycle
// counts the performance model (internal/core) uses for Tables 7-8.
package hwsim

import (
	"fmt"
	"math/bits"

	"heax/internal/ntt"
	"heax/internal/uintmod"
)

// PipelineMode selects between the naive schedule of Figure 4 (reads of a
// Type-1 ME pair stall the cores: 50% bubble) and the optimized two-stage
// read/compute/write schedule with doubled MEs.
type PipelineMode int

const (
	// OptimizedPipeline doubles ME width so reads, computes and writes of
	// consecutive ME pairs fully overlap (the paper's final design).
	OptimizedPipeline PipelineMode = iota
	// BasicPipeline models the unoptimized schedule: during Type-1 stages
	// the cores idle half the time.
	BasicPipeline
)

// AccessRecord traces one memory transaction of the NTT dataflow, enough
// to reconstruct the Figure 2 access-pattern diagram.
type AccessRecord struct {
	Stage   int
	Step    int
	Type1   bool
	MEAddrs []int // ME rows read this step
}

// NTTModuleSim is one NTT (or INTT) module: NC butterfly cores over a
// polynomial striped across parallel BRAMs in MEs of width 2·NC.
type NTTModuleSim struct {
	NC      int
	Tables  *ntt.Tables
	Mode    PipelineMode
	Inverse bool

	// Cycles accumulates data-movement cycles over all transforms run on
	// this module instance (steady-state occupancy, excluding pipeline
	// fill — the module is fully pipelined, Section 4.2).
	Cycles int64
	// FillLatency is the per-transform pipeline depth (core stages).
	FillLatency int

	// Record enables access tracing into Trace.
	Record bool
	Trace  []AccessRecord
}

// NewNTTModuleSim validates the geometry: the ME width 2·nc must divide
// the ring degree with at least two rows, and the modulus must fit the
// 54-bit datapath.
func NewNTTModuleSim(tables *ntt.Tables, nc int, inverse bool) (*NTTModuleSim, error) {
	n := tables.N
	if nc < 1 || nc&(nc-1) != 0 {
		return nil, fmt.Errorf("hwsim: core count %d must be a power of two", nc)
	}
	if 4*nc > n {
		return nil, fmt.Errorf("hwsim: %d cores too many for n=%d (need n >= 4·nc)", nc, n)
	}
	if tables.Mod.P >= 1<<uintmod.MaxModulusBits54 {
		return nil, fmt.Errorf("hwsim: modulus %d exceeds the 52-bit datapath limit", tables.Mod.P)
	}
	cost := 50
	if inverse {
		cost = 49
	}
	return &NTTModuleSim{NC: nc, Tables: tables, Inverse: inverse, FillLatency: cost}, nil
}

// Transform runs the module on a in place (forward NTT or INTT depending
// on construction), updating the cycle counters.
func (s *NTTModuleSim) Transform(a []uint64) {
	n := s.Tables.N
	if len(a) != n {
		panic("hwsim: length mismatch")
	}
	w := 2 * s.NC // ME width after the two-stage optimization
	depth := n / w
	logn := bits.Len(uint(n)) - 1

	// rows is the banked memory: rows[r][lane] = a[r*w+lane]. All reads
	// and writes below go through whole MEs, as the hardware's shared
	// address signals require.
	rows := make([][]uint64, depth)
	for r := range rows {
		rows[r] = a[r*w : (r+1)*w]
	}

	if s.Inverse {
		for st := 0; st < logn; st++ {
			t := 1 << st // butterfly span grows in INTT
			s.stage(rows, st, t, w)
		}
	} else {
		for st := 0; st < logn; st++ {
			t := n >> (st + 1) // butterfly span shrinks in NTT
			s.stage(rows, st, t, w)
		}
	}
}

// stage executes one butterfly stage over the banked rows.
func (s *NTTModuleSim) stage(rows [][]uint64, st, t, w int) {
	depth := len(rows)
	if t >= w {
		// Type 1: partners live in different MEs, rowStride apart.
		rowStride := t / w
		cost := int64(2) // two MEs per transaction, fully overlapped
		if s.Mode == BasicPipeline {
			cost = 4 // 50% bubble: reads stall computes (Figure 4)
		}
		step := 0
		for base := 0; base < depth; base += 2 * rowStride {
			for r := 0; r < rowStride; r++ {
				ra, rb := base+r, base+r+rowStride
				s.record(st, step, true, ra, rb)
				step++
				for lane := 0; lane < w; lane++ {
					j := ra*w + lane
					s.butterfly(&rows[ra][lane], &rows[rb][lane], j, t)
				}
				s.Cycles += cost
			}
		}
		return
	}
	// Type 2: partners are within one ME; the customized MUX network
	// pairs lane and lane+t.
	for r := 0; r < depth; r++ {
		s.record(st, r, false, r)
		for lane := 0; lane < w; lane += 2 * t {
			for x := 0; x < t; x++ {
				j := r*w + lane + x
				s.butterfly(&rows[r][lane+x], &rows[r][lane+x+t], j, t)
			}
		}
		s.Cycles++
	}
}

// butterfly applies one CT (forward) or GS (inverse) butterfly on the
// 54-bit datapath. j is the global index of the first operand and t the
// span; the twiddle group is j/(2t) within the stage of n/(2t) groups.
func (s *NTTModuleSim) butterfly(pa, pb *uint64, j, t int) {
	n := s.Tables.N
	m := n / (2 * t)
	idx := m + j/(2*t)
	p := s.Tables.Mod.P
	if s.Inverse {
		wv, _, ws54 := s.Tables.InverseTwiddle(idx)
		u, v := *pa, *pb
		*pa = uintmod.Half(uintmod.AddMod(u, v, p), p)
		*pb = uintmod.MulRed54(uintmod.SubMod(u, v, p), wv, ws54, p)
		return
	}
	wv, _, ws54 := s.Tables.ForwardTwiddle(idx)
	u := *pa
	v := uintmod.MulRed54(*pb, wv, ws54, p)
	*pa = uintmod.AddMod(u, v, p)
	*pb = uintmod.SubMod(u, v, p)
}

func (s *NTTModuleSim) record(stage, step int, type1 bool, addrs ...int) {
	if !s.Record {
		return
	}
	s.Trace = append(s.Trace, AccessRecord{
		Stage: stage, Step: step, Type1: type1,
		MEAddrs: append([]int(nil), addrs...),
	})
}

// ResetCounters clears accumulated cycles and traces.
func (s *NTTModuleSim) ResetCounters() {
	s.Cycles = 0
	s.Trace = nil
}
