package core

// Design is a full HEAX instantiation: the KeySwitch pipeline plus the
// standalone MULT module, on a specific board for a specific parameter
// set ("The complete design encompasses the KeySwitch module along with
// the MULT module", Section 6.2).
type Design struct {
	Board Board
	Set   ParamSet
	Arch  KeySwitchArch
	// StandaloneMULTCores is the width of the separate MULT module used
	// for C-C and C-P multiplication; 16 in every evaluated design
	// (Section 6.3).
	StandaloneMULTCores int
}

// NewDesign assembles a design with the paper's standalone 16-core MULT.
func NewDesign(b Board, set ParamSet, arch KeySwitchArch) *Design {
	return &Design{Board: b, Set: set, Arch: arch, StandaloneMULTCores: 16}
}

// moduleInstance pairs a module type/width with a count, for inventories.
type moduleInstance struct {
	Kind  ModuleKind
	Cores int
	Count int
}

func (d *Design) modules() []moduleInstance {
	a := d.Arch
	return []moduleInstance{
		{INTTModule, a.NcINTT0, 1},
		{NTTModule, a.NcNTT0, a.NumNTT0},
		{MULTModule, a.NcDyad, a.NumDyad}, // DyadMult modules
		{INTTModule, a.NcINTT1, a.NumINTT1},
		{NTTModule, a.NcNTT1, a.NumNTT1},
		{MULTModule, a.NcMS, a.NumMS}, // final multiply-subtract
		{MULTModule, d.StandaloneMULTCores, 1},
	}
}

// Resources sums the compute-module resources of the design (the Table 6
// aggregate: Table 6's DSP/REG/ALM columns are, to within rounding, the
// sum of the Table 4 module rows for the Table 5 composition).
func (d *Design) Resources() Resources {
	n := d.Set.N()
	var total Resources
	for _, m := range d.modules() {
		total = total.Add(ModuleResources(m.Kind, m.Cores, n).Scale(m.Count))
	}
	// The platform shell's DSP blocks are counted in Table 6 (its
	// REG/ALM are not; the printed totals match the bare module sums).
	total.DSP += PaperShell[d.Board.Name].DSP
	// Replace the module-internal BRAM sum with the full memory
	// inventory (accumulator banks, buffers, resident keys).
	inv := d.MemoryInventory()
	total.BRAMBits = inv.TotalBits
	total.M20K = inv.TotalM20K
	return total
}

// MemoryInventory itemizes design-level BRAM use (Sections 4.3 and 5.1).
type MemoryInventory struct {
	ModuleBits      int // internal memories of all modules
	AccumBits       int // the two KeySwitch accumulation bank sets (f2-deep)
	InputBufBits    int // f1-deep input-polynomial buffers
	ResidentKeyBits int // switching keys held on chip (0 when spilled to DRAM)
	KeysOnDRAM      bool
	TotalBits       int
	TotalM20K       int
}

// KskBits returns the size of one switching key in bits:
// 2 columns × k digits × (k+1) moduli × n words (Section 5.1's O(nk²)
// growth).
func KskBits(set ParamSet) int {
	return 2 * set.K * (set.K + 1) * set.N() * WordBits
}

// MemoryInventory derives the design's on-chip memory plan. Keys are kept
// resident while the total fits in the board's BRAM; otherwise they move
// to DRAM (the Section 5.1 decision that Set-C forces).
func (d *Design) MemoryInventory() MemoryInventory {
	n := d.Set.N()
	polyBits := n * WordBits
	var inv MemoryInventory
	var m20k int
	for _, m := range d.modules() {
		b, u := moduleBRAM(m.Kind, m.Cores, n)
		inv.ModuleBits += b * m.Count
		m20k += u * m.Count
	}
	// Two bank sets, each holding (k+1) residue polynomials, f2-buffered
	// against "Data Dependency 2" (Section 4.3).
	inv.AccumBits = 2 * (d.Set.K + 1) * d.Arch.F2(d.Set.LogN) * polyBits
	// Quadruple-buffered input polynomial (f1) plus PCIe staging for the
	// standalone MULT (double-buffered operand pair, Section 5.2).
	inv.InputBufBits = d.Arch.F1()*polyBits + 2*2*polyBits

	// One switching key resides on chip when it fits alongside the fixed
	// inventory; otherwise keys stream from DRAM. This reproduces the
	// Section 5.1 decision: Set-A and Set-B keys stay in BRAM, Set-C's
	// O(nk²) keys do not. (The paper's BRAM totals are not itemized and
	// differ from this inventory; DESIGN.md, "Table 6: the BRAM gap".)
	fixed := inv.ModuleBits + inv.AccumBits + inv.InputBufBits
	ksk := KskBits(d.Set)
	if fixed+ksk <= d.Board.BRAMBits {
		inv.ResidentKeyBits = ksk
	} else {
		inv.KeysOnDRAM = true
	}
	inv.TotalBits = fixed + inv.ResidentKeyBits
	// M20K: modules are counted structurally; bank/buffer/key memories
	// are wide sequential buffers packed near the word-packing bound
	// (Section 4.2), so their unit count tracks bits/M20K capacity with
	// the β=8 packing efficiency of ~98%.
	extraBits := inv.TotalBits - inv.ModuleBits
	m20k += ceilDiv(extraBits, M20KBits*54/55)
	inv.TotalM20K = m20k
	return inv
}
