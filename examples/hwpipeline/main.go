// hwpipeline runs a relinearization KeySwitch through the simulated HEAX
// hardware — INTT0 → NTT0 layer → DyadMult banks → INTT1 → NTT1 → MS —
// verifies the result against the software evaluator bit for bit, and
// prints the Figure-6-style pipeline occupancy of back-to-back operations.
// Everything runs through the public surfaces: the CKKS engine from heax,
// the hardware model and simulator from heax/arch.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"heax"
	"heax/arch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwpipeline: ")

	// A small HEAX-shaped parameter set keeps the functional simulation
	// quick; the pipeline timing below uses the real Set-B architecture.
	spec := heax.ParamSpec{Name: "demo", LogN: 11, QBits: []int{43, 40, 40, 40}, PBits: 46, LogScale: 40}
	params, err := heax.NewParams(spec)
	if err != nil {
		log.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	eval := heax.NewEvaluator(params, &heax.EvaluationKeySet{Relin: rlk})

	set := arch.ParamSet{Name: spec.Name, LogN: spec.LogN, K: len(spec.QBits)}
	a := arch.DeriveArch(arch.BoardStratix10, set, 8)
	fmt.Printf("architecture: %s (f1=%d, f2=%d)\n", a, a.F1(), a.F2(set.LogN))

	// Functional run: hardware vs software on a random polynomial.
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(2))
	c := ctx.NewPoly(params.K())
	for i := range c.Coeffs {
		p := ctx.Basis.Primes[i]
		for j := range c.Coeffs[i] {
			c.Coeffs[i][j] = rng.Uint64() % p
		}
	}
	sim := arch.NewKeySwitchSim(ctx, a)
	hw0, hw1, err := sim.Run(c, rlk.SwitchingKey.Digits)
	if err != nil {
		log.Fatal(err)
	}
	sw0, sw1 := eval.KeySwitchPoly(c, &rlk.SwitchingKey)
	same := hw0.Equal(sw0) && hw1.Equal(sw1)
	fmt.Printf("hardware == software: %v\n", same)
	if !same {
		log.Fatal("the simulated hardware key switch diverged from the software one")
	}
	fmt.Printf("module work (cycles): INTT0 %d, NTT0 %d, Dyad %d, INTT1 %d, NTT1 %d, MS %d\n",
		sim.INTT0Cycles, sim.NTT0Cycles, sim.DyadCycles, sim.INTT1Cycles, sim.NTT1Cycles, sim.MSCycles)

	// Timing run on the paper's Stratix 10 / Set-B configuration.
	setB := arch.ParamSetB
	archB, err := arch.GenerateArch(arch.BoardStratix10, setB)
	if err != nil {
		log.Fatal(err)
	}
	rep := arch.SimulateKeySwitchPipeline(arch.PipelineConfig{Arch: archB, Set: setB}, 64, false)
	closed := archB.KeySwitchCycles(setB)
	fmt.Printf("\nStratix 10 / Set-B pipeline: interval %.0f cycles (closed form %d) -> %.0f KeySwitch/s @300MHz\n",
		rep.Interval, closed, 300e6/rep.Interval)

	var names []string
	for name := range rep.Utilization {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("module utilization:")
	for _, name := range names {
		fmt.Printf("  %-8s %5.1f%%\n", name, 100*rep.Utilization[name])
	}

	trace := arch.SimulateKeySwitchPipeline(arch.PipelineConfig{Arch: archB, Set: setB}, 6, true)
	fmt.Println("\npipeline occupancy (6 ops, digit colored by op number):")
	fmt.Print(arch.RenderGantt(trace, int64(rep.Interval)/12+1, 100))
}
