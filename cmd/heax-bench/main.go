// heax-bench regenerates every table and figure of the HEAX evaluation
// (Section 6) from this reproduction — resource models, the architecture
// generator, the cycle-level pipeline simulator, and the Go CKKS baseline
// measured on the local machine — each next to the paper's reported
// numbers. It is a thin driver over the internal/bench harness.
//
// Usage:
//
//	heax-bench [-quick] [-nocpu]
//
// -quick shortens the CPU measurement windows; -nocpu skips the CPU
// baseline entirely (the model/paper columns still print).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"heax/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heax-bench: ")
	quick := flag.Bool("quick", false, "shorter CPU measurement windows")
	nocpu := flag.Bool("nocpu", false, "skip CPU baseline measurement")
	flag.Parse()

	var cpu bench.CPUMeasurements
	if !*nocpu {
		fmt.Fprintln(os.Stderr, "measuring CPU baseline (Set-A, Set-B, Set-C)...")
		m, err := bench.MeasureCPU(*quick)
		if err != nil {
			log.Fatal(err)
		}
		cpu = m
	}
	out, err := bench.AllTables(cpu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}
