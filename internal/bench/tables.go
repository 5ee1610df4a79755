package bench

import (
	"fmt"
	"strings"

	"heax/internal/ckks"
	"heax/internal/core"
	"heax/internal/host"
	"heax/internal/hwsim"
	"heax/internal/ntt"
	"heax/internal/primes"
	"heax/internal/xfer"
)

// Table1Boards renders the board inventory (paper Table 1).
func Table1Boards() Table {
	t := Table{
		Title:  "Table 1: FPGA boards",
		Header: []string{"board", "chip", "DSP", "REG", "ALM", "BRAM bits", "M20K", "DRAM chnl", "DRAM GB/s", "PCIe GB/s", "clock MHz"},
	}
	for _, b := range core.Boards {
		t.Rows = append(t.Rows, []string{
			b.Name, b.Chip, d(b.DSP), d(b.REG), d(b.ALM), d(b.BRAMBits), d(b.M20K),
			d(b.DRAMChannels), d(b.DRAMGBps), f2(b.PCIeGBps), d(b.FreqMHz),
		})
	}
	return t
}

// Table2Params realizes each parameter set and verifies the Table 2
// constraints (prime count, total modulus bits, 52-bit primes, NTT
// friendliness).
func Table2Params() (Table, error) {
	t := Table{
		Title:  "Table 2: HE parameter sets",
		Header: []string{"set", "n", "log(qp)+1 paper", "log(qp)+1 built", "k", "primes < 2^52", "all ≡ 1 mod 2n"},
	}
	for i, spec := range ckks.StandardSets {
		params, err := ckks.NewParams(spec)
		if err != nil {
			return t, err
		}
		all := append(append([]uint64{}, params.Q...), params.P)
		small, friendly := true, true
		for _, p := range all {
			if p >= 1<<52 {
				small = false
			}
			if p%(2*uint64(params.N)) != 1 {
				friendly = false
			}
		}
		t.Rows = append(t.Rows, []string{
			spec.Name, d(params.N), d(core.ParamSets[i].ModulusBits()), d(params.TotalModulusBits()),
			d(params.K()), fmt.Sprint(small), fmt.Sprint(friendly),
		})
	}
	return t, nil
}

// Table3Cores renders the per-core costs (calibration data from the
// paper's synthesis).
func Table3Cores() Table {
	t := Table{
		Title:  "Table 3: computation cores",
		Note:   "per-core DSP/REG/ALM are synthesis results transcribed from the paper (no RTL toolchain in this reproduction); pipeline depths feed the simulator",
		Header: []string{"core", "DSP", "REG", "ALM", "stages"},
	}
	for _, k := range []core.CoreKind{core.DyadicCore, core.NTTCore, core.INTTCore} {
		c := core.PaperCoreCosts[k]
		t.Rows = append(t.Rows, []string{k.String(), d(c.DSP), d(c.REG), d(c.ALM), d(c.Stages)})
	}
	return t
}

// Table4Modules compares the module model against the paper's module
// table, and the simulator's measured cycles against both.
func Table4Modules() Table {
	t := Table{
		Title: "Table 4: basic modules (BRAM at n=2^13, cycles at n=2^12)",
		Note:  "cycles(model) come from the closed forms validated by hwsim; the paper's MULT cycle entries for 16/32 cores disagree with its own Table 7 throughput (see the PaperModules comment in internal/core/paperdata.go)",
		Header: []string{"module", "cores", "DSP", "DSP(paper)", "REG", "REG(paper)", "ALM", "ALM(paper)",
			"BRAM bits", "BRAM(paper)", "cycles", "cycles(paper)"},
	}
	for _, kind := range []core.ModuleKind{core.MULTModule, core.NTTModule, core.INTTModule} {
		for _, row := range core.PaperModules[kind] {
			r := core.ModuleResources(kind, row.Cores, 1<<13)
			cyc := core.ModuleCycles(kind, row.Cores, 1<<12)
			t.Rows = append(t.Rows, []string{
				kind.String(), d(row.Cores), d(r.DSP), d(row.DSP), d(r.REG), d(row.REG),
				d(r.ALM), d(row.ALM), d(r.BRAMBits), d(row.BRAMBits), d(cyc), d(row.Cycles),
			})
		}
	}
	return t
}

// Table5Architectures runs the generator for each evaluated configuration
// and compares with the paper's architecture strings.
func Table5Architectures() (Table, error) {
	t := Table{
		Title:  "Table 5: KeySwitch architectures (generated vs paper)",
		Header: []string{"board", "set", "generated", "paper", "match"},
	}
	for _, cfg := range core.PaperArchitectures {
		b, err := core.BoardByName(cfg.Board)
		if err != nil {
			return t, err
		}
		set, err := paramSetByName(cfg.Set)
		if err != nil {
			return t, err
		}
		got, err := core.GenerateArch(b, set)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.Board, cfg.Set, got.String(), cfg.Arch.String(), fmt.Sprint(got == cfg.Arch),
		})
	}
	return t, nil
}

// Table6Designs compares full-design resources with the paper.
func Table6Designs() (Table, error) {
	t := Table{
		Title: "Table 6: complete-design resource utilization",
		Note:  "DSP/REG/ALM are module sums (the paper's totals are too); BRAM columns follow the memory-inventory model; Arria 10 deviations reflect Stratix-calibrated module costs",
		Header: []string{"board", "set", "DSP", "DSP(paper)", "REG", "REG(paper)", "ALM", "ALM(paper)",
			"BRAM bits", "BRAM(paper)", "M20K", "M20K(paper)", "MHz"},
	}
	for _, row := range core.PaperDesigns {
		des, err := designFor(row.Board, row.Set)
		if err != nil {
			return t, err
		}
		r := des.Resources()
		t.Rows = append(t.Rows, []string{
			row.Board, row.Set, d(r.DSP), d(row.DSP), d(r.REG), d(row.REG), d(r.ALM), d(row.ALM),
			d(r.BRAMBits), d(row.BRAMBits), d(r.M20K), d(row.M20K), d(row.FreqMHz),
		})
	}
	return t, nil
}

// Table7LowLevel builds the low-level throughput comparison. For a set
// missing from cpu (the zero CPUMeasurements holds none) the CPU(go)
// column prints 0 and speedup(go) "-"; the model and paper columns print
// as usual.
func Table7LowLevel(cpu CPUMeasurements) (Table, error) {
	t := Table{
		Title:  "Table 7: low-level operations (ops/sec)",
		Note:   "CPU(go) is this repo's baseline on this machine; CPU(paper) is SEAL 3.3 on a 1.8 GHz Xeon; HEAX(model) is cycle-exact and matches HEAX(paper)",
		Header: perfHeader,
	}
	for _, row := range core.PaperLowLevel {
		des, err := designFor(row.Board, row.Set)
		if err != nil {
			return t, err
		}
		p := core.Perf{Design: des}
		add := perfRows(&t, row.Board, row.Set)
		add("NTT", cpu.NTT[row.Set], row.NTTCPU, p.NTTOps(), row.NTTHEAX)
		add("INTT", cpu.INTT[row.Set], row.INTTCPU, p.INTTOps(), row.INTTHEAX)
		add("Dyadic", cpu.Dyadic[row.Set], row.DyadicCPU, p.DyadicOps(), row.DyadicHEAX)
	}
	return t, nil
}

// Table8HighLevel builds the high-level throughput comparison.
func Table8HighLevel(cpu CPUMeasurements) (Table, error) {
	t := Table{
		Title:  "Table 8: high-level operations (ops/sec)",
		Note:   "same conventions as Table 7; KeySwitch interval additionally validated by the pipeline simulator",
		Header: perfHeader,
	}
	for _, row := range core.PaperHighLevel {
		des, err := designFor(row.Board, row.Set)
		if err != nil {
			return t, err
		}
		p := core.Perf{Design: des}
		add := perfRows(&t, row.Board, row.Set)
		add("KeySwitch", cpu.KeySwitch[row.Set], row.KeySwitchCPU, p.KeySwitchOps(), row.KeySwitchHEAX)
		add("MULT+ReLin", cpu.MulRelin[row.Set], row.MulRelinCPU, p.MulRelinOps(), row.MulRelinHEAX)
	}
	return t, nil
}

// perfHeader is the header Tables 7 and 8 share.
var perfHeader = []string{"board", "set", "op", "CPU(go)", "CPU(paper)", "HEAX(model)", "HEAX(paper)",
	"speedup(go)", "speedup(paper)"}

// perfRows returns the function that appends one Table 7/8 row for an
// operation on board and set to t; a missing CPU rate prints "-" for its
// speedup.
func perfRows(t *Table, board, set string) func(op string, cpuGo, cpuPaper, model, paper float64) {
	return func(op string, cpuGo, cpuPaper, model, paper float64) {
		sp := "-"
		if cpuGo > 0 {
			sp = f1(model / cpuGo)
		}
		t.Rows = append(t.Rows, []string{
			board, set, op, f0(cpuGo), f0(cpuPaper), f0(model), f0(paper),
			sp, f1(paper / cpuPaper),
		})
	}
}

// Fig2AccessPattern renders the NTT access-pattern trace for a small
// instance (the Figure 2 diagram).
func Fig2AccessPattern() (Table, error) {
	ps, err := primes.NTTPrimes(30, 16, 1)
	if err != nil {
		return Table{}, err
	}
	tb, err := ntt.NewTables(ps[0], 16)
	if err != nil {
		return Table{}, err
	}
	sim, err := hwsim.NewNTTModuleSim(tb, 2, false)
	if err != nil {
		return Table{}, err
	}
	sim.Record = true
	a := make([]uint64, 16)
	sim.Transform(a)
	t := Table{
		Title:  "Figure 2: NTT access pattern (n=16, nc=2, ME width 4)",
		Header: []string{"stage", "step", "type", "ME rows read"},
	}
	for _, rec := range sim.Trace {
		typ := "Type 2"
		if rec.Type1 {
			typ = "Type 1"
		}
		t.Rows = append(t.Rows, []string{d(rec.Stage), d(rec.Step), typ, fmt.Sprint(rec.MEAddrs)})
	}
	return t, nil
}

// Fig4PipelineAblation measures the basic-vs-optimized pipeline cost on
// real transforms (the Figure 4 optimization).
func Fig4PipelineAblation() (Table, error) {
	t := Table{
		Title:  "Figure 4: NTT pipeline ablation (n=2^12)",
		Header: []string{"cores", "optimized cycles", "basic cycles", "slowdown", "paper bound (logn+t1)/logn"},
	}
	ps, err := primes.NTTPrimes(44, 1<<12, 1)
	if err != nil {
		return t, err
	}
	tb, err := ntt.NewTables(ps[0], 1<<12)
	if err != nil {
		return t, err
	}
	for _, nc := range []int{4, 8, 16, 32} {
		opt, err := hwsim.NewNTTModuleSim(tb, nc, false)
		if err != nil {
			return t, err
		}
		basic, err := hwsim.NewNTTModuleSim(tb, nc, false)
		if err != nil {
			return t, err
		}
		basic.Mode = hwsim.BasicPipeline
		a := make([]uint64, 1<<12)
		b := make([]uint64, 1<<12)
		opt.Transform(a)
		basic.Transform(b)
		logn := 12
		logw := 0
		for 1<<logw < 2*nc {
			logw++
		}
		t1 := logn - logw
		bound := float64(logn+t1) / float64(logn)
		t.Rows = append(t.Rows, []string{
			d(nc), d(int(opt.Cycles)), d(int(basic.Cycles)),
			f2(float64(basic.Cycles) / float64(opt.Cycles)), f2(bound),
		})
	}
	return t, nil
}

// Fig6Pipeline simulates the KeySwitch pipeline per configuration and
// returns the interval comparison plus a Gantt rendering for Set-B.
func Fig6Pipeline() (Table, string, error) {
	t := Table{
		Title:  "Figure 6: KeySwitch pipeline simulation",
		Header: []string{"board", "set", "interval (sim)", "interval (closed form)", "INTT0 util", "ops/s @ clock"},
	}
	var gantt string
	for _, cfg := range core.PaperArchitectures {
		set, err := paramSetByName(cfg.Set)
		if err != nil {
			return t, "", err
		}
		b, err := core.BoardByName(cfg.Board)
		if err != nil {
			return t, "", err
		}
		rep := hwsim.SimulateKeySwitchPipeline(hwsim.PipelineConfig{Arch: cfg.Arch, Set: set}, 64, false)
		closed := cfg.Arch.KeySwitchCycles(set)
		ops := float64(b.FreqMHz) * 1e6 / rep.Interval
		t.Rows = append(t.Rows, []string{
			cfg.Board, cfg.Set, f0(rep.Interval), d(closed),
			f2(rep.Utilization["INTT0"]), f0(ops),
		})
		if cfg.Board == core.BoardStratix10.Name && cfg.Set == "Set-B" {
			tr := hwsim.SimulateKeySwitchPipeline(hwsim.PipelineConfig{Arch: cfg.Arch, Set: set}, 6, true)
			gantt = hwsim.RenderGantt(tr, int64(rep.Interval)/12+1, 100)
		}
	}
	return t, gantt, nil
}

// AblationBuffers quantifies the f1/f2 buffer sizing (the Section 4.3
// data dependencies): undersized buffers reintroduce pipeline stalls.
func AblationBuffers() (Table, error) {
	t := Table{
		Title:  "Ablation: KeySwitch buffer sizing (Stratix 10, Set-B)",
		Header: []string{"f1", "f2", "interval", "vs closed form"},
	}
	set := core.ParamSetB
	arch := core.DeriveArch(core.BoardStratix10, set, 16)
	closed := float64(arch.KeySwitchCycles(set))
	for _, c := range []struct{ f1, f2 int }{{1, 1}, {2, 15}, {4, 2}, {4, 15}, {0, 0}} {
		rep := hwsim.SimulateKeySwitchPipeline(hwsim.PipelineConfig{Arch: arch, Set: set, F1: c.f1, F2: c.f2}, 48, false)
		f1s, f2s := d(c.f1), d(c.f2)
		if c.f1 == 0 {
			f1s, f2s = d(arch.F1()), d(arch.F2(set.LogN))
		}
		t.Rows = append(t.Rows, []string{f1s, f2s, f0(rep.Interval), f2(rep.Interval / closed)})
	}
	return t, nil
}

// WordSizeAblationTable renders the Section 4 word-size study.
func WordSizeAblationTable() Table {
	t := Table{
		Title:  "Ablation: native word size (Section 4)",
		Header: []string{"set", "k @ w=54", "k @ w=64", "DSP bank @54", "DSP bank @64", "net DSP reduction"},
		Note:   "paper reports 1.4-2.25x depending on parameters",
	}
	for _, r := range core.WordSizeAblationTable() {
		t.Rows = append(t.Rows, []string{
			r.Set.Name, d(r.K54), d(r.K64), d(r.DSP54), d(r.DSP64), f2(r.NetReduction),
		})
	}
	return t
}

// Sec5System renders the DRAM streaming and PCIe feasibility analyses.
func Sec5System() (Table, error) {
	t := Table{
		Title: "Section 5: system data flow",
		Header: []string{"board", "set", "keys", "ksk Mb/op", "interval µs", "DRAM GB/s needed",
			"DRAM GB/s avail", "MULT PCIe-bound", "f1 buffers"},
	}
	for _, cfg := range core.EvaluatedConfigs() {
		des, err := core.StandardDesign(cfg.Board, cfg.Set)
		if err != nil {
			return t, err
		}
		inv := des.MemoryInventory()
		where := "BRAM"
		if inv.KeysOnDRAM {
			where = "DRAM"
		}
		dram := xfer.DRAMStreaming(des)
		feed := xfer.MULTFeed(des)
		t.Rows = append(t.Rows, []string{
			cfg.Board.Name, cfg.Set.Name, where,
			f1(float64(dram.BitsPerKeySwitch) / 1e6),
			f1(dram.IntervalSec * 1e6), f2(dram.RequiredGBps), f0(dram.AvailableGBps),
			fmt.Sprint(feed.PCIeBound), d(des.Arch.F1()),
		})
	}
	return t, nil
}

// HostStreamingTable quantifies the Section 5 host-side design: achieved
// throughput when streaming operations over PCIe, with and without the
// DRAM memory map, against the compute bound of Tables 7-8.
func HostStreamingTable() (Table, error) {
	t := Table{
		Title: "Section 5.2: host streaming (ops/s achieved vs compute bound)",
		Note:  "'mapped' keeps results (then operands too) in device DRAM via the Section 5.1 memory map",
		Header: []string{"board", "set", "op", "compute bound", "PCIe both ways", "mapped results",
			"mapped both", "bound (plain)"},
	}
	for _, cfg := range core.EvaluatedConfigs() {
		d, err := core.StandardDesign(cfg.Board, cfg.Set)
		if err != nil {
			return t, err
		}
		for _, kind := range []host.OpKind{host.OpMult, host.OpKeySwitch} {
			s, err := host.StudyMemoryMap(d, kind, 128)
			if err != nil {
				return t, err
			}
			boundBy := "compute"
			if s.Plain.TransferBound {
				boundBy = "PCIe"
			}
			t.Rows = append(t.Rows, []string{
				cfg.Board.Name, cfg.Set.Name, kind.String(),
				f0(s.Plain.ComputeBoundOps), f0(s.Plain.AchievedOps),
				f0(s.MapResults.AchievedOps), f0(s.MapBoth.AchievedOps), boundBy,
			})
		}
	}
	return t, nil
}

// SweepTable renders the INTT0-width sweep behind the scalability claim:
// throughput doubles with module width until a board resource runs out,
// and the widest feasible point is exactly the paper's configuration.
func SweepTable() Table {
	t := Table{
		Title:  "Sweep: KeySwitch throughput vs INTT0 width",
		Header: []string{"board", "set", "ncINTT0", "KeySwitch ops/s", "DSP", "ALM", "feasible", "limited by"},
	}
	for _, cfg := range core.EvaluatedConfigs() {
		for _, p := range core.SweepINTT0(cfg.Board, cfg.Set) {
			lim := p.LimitedBy
			if lim == "" {
				lim = "-"
			}
			t.Rows = append(t.Rows, []string{
				cfg.Board.Name, cfg.Set.Name, d(p.NcINTT0), f0(p.KeySwitchOps),
				d(p.Resources.DSP), d(p.Resources.ALM), fmt.Sprint(p.Feasible), lim,
			})
		}
	}
	return t
}

// ScalabilityTable renders the Section 6.3 scalability claim.
func ScalabilityTable() (Table, error) {
	t := Table{
		Title:  "Section 6.3: scalability (Set-A on both boards)",
		Header: []string{"metric", "Arria 10", "Stratix 10", "ratio"},
	}
	a10, err := designFor("Arria10", "Set-A")
	if err != nil {
		return t, err
	}
	s10, err := designFor("Stratix10", "Set-A")
	if err != nil {
		return t, err
	}
	ra, rs := a10.Resources(), s10.Resources()
	pa := core.Perf{Design: a10}
	ps := core.Perf{Design: s10}
	t.Rows = append(t.Rows, []string{"DSP", d(ra.DSP), d(rs.DSP), f2(float64(rs.DSP) / float64(ra.DSP))})
	t.Rows = append(t.Rows, []string{"KeySwitch ops/s", f0(pa.KeySwitchOps()), f0(ps.KeySwitchOps()),
		f2(ps.KeySwitchOps() / pa.KeySwitchOps())})
	return t, nil
}

// AllTables renders every experiment, optionally with CPU measurements.
func AllTables(cpu CPUMeasurements) (string, error) {
	var parts []string
	var first error
	add := func(t Table, err error) {
		if err == nil {
			parts = append(parts, t.Render())
		} else if first == nil {
			first = err
		}
	}
	add(Table1Boards(), nil)
	add(Table2Params())
	add(Table3Cores(), nil)
	add(Table4Modules(), nil)
	add(Table5Architectures())
	add(Table6Designs())
	add(Table7LowLevel(cpu))
	add(Table8HighLevel(cpu))
	add(Fig2AccessPattern())
	add(Fig4PipelineAblation())
	f6, gantt, err := Fig6Pipeline()
	add(f6, err)
	parts = append(parts, "Figure 6 Gantt (Stratix 10 Set-B, 6 ops, digits by op number):\n"+gantt)
	add(AblationBuffers())
	add(WordSizeAblationTable(), nil)
	add(Sec5System())
	add(HostStreamingTable())
	add(SweepTable(), nil)
	add(ScalabilityTable())
	if first != nil {
		return "", first
	}
	return strings.Join(parts, "\n"), nil
}

func designFor(board, set string) (*core.Design, error) {
	b, err := core.BoardByName(board)
	if err != nil {
		return nil, err
	}
	ps, err := paramSetByName(set)
	if err != nil {
		return nil, err
	}
	return core.StandardDesign(b, ps)
}

func paramSetByName(name string) (core.ParamSet, error) {
	for _, s := range core.ParamSets {
		if s.Name == name {
			return s, nil
		}
	}
	return core.ParamSet{}, fmt.Errorf("bench: unknown parameter set %q", name)
}
