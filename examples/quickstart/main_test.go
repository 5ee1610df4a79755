package main

import (
	"fmt"
	"os"
)

// Example pins the quickstart's output: all randomness is seeded and the
// arithmetic is deterministic, so any drift in the public API surface or
// in the numerics shows up as a golden-output diff under go test ./...
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// parameters: n=4096, k=2, log(qp)+1=109, scale=2^30
	// x + y    :   3.5000  -1.7500   2.2500   4.5000   (max err 6.80e-07)
	// after rescale: level 0, scale 2^24.0
	// x * y    :   3.0000  -0.5000  -3.2500   2.0000   (max err 3.76e-05)
	// rot(x,1) :  -1.9998   3.2500   0.5000   0.0000   (max err 1.51e-04)
}
