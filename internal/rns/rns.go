// Package rns implements the residue number system machinery of
// Section 2: a basis of pairwise-coprime word-sized primes p_0..p_L
// representing Z_q with q = Π p_i, CRT composition against
// big integers, and the precomputed per-prime constants (π_i, [π_i^{-1}]_{p_i},
// cross-prime reductions and inverses) that the CKKS evaluation algorithms
// consume.
//
// Full-RNS operation is what makes the HEAX architecture possible: every
// Func(a, b) on R_q decomposes into independent per-prime computations
// (the paper's "ring isomorphism" argument in Section 7), which is exactly
// the parallelism the FPGA modules exploit and the reason on-chip memory
// holds one residue polynomial at a time.
package rns

import (
	"fmt"
	"math/big"

	"heax/internal/primes"
	"heax/internal/uintmod"
)

// Basis is an ordered set of distinct NTT-friendly primes.
type Basis struct {
	Primes []uint64
	Mods   []uintmod.Modulus

	q *big.Int // product of all primes

	// Cross-prime inverses with Shoup precomputation:
	// invCross[j][i] = [p_j^{-1}]_{p_i} (0 on the diagonal). RNS flooring
	// (Algorithm 6) multiplies by the inverse of the dropped prime in
	// every surviving row; precomputing here keeps the per-call Fermat
	// exponentiation out of the rescale/key-switch hot path.
	invCross      [][]uint64
	invCrossShoup [][]uint64
}

// NewBasis builds a basis from primes, which must be distinct and at most
// 62 bits wide. A modulus that is not prime is refused: two that share a
// factor have no CRT inverses, and parameters read off the wire may name
// any number.
func NewBasis(ps []uint64) (*Basis, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := make(map[uint64]bool, len(ps))
	b := &Basis{
		Primes: append([]uint64(nil), ps...),
		Mods:   make([]uintmod.Modulus, len(ps)),
		q:      big.NewInt(1),
	}
	for i, p := range ps {
		if seen[p] {
			return nil, fmt.Errorf("rns: duplicate prime %d", p)
		}
		if p>>uintmod.MaxModulusBits64 != 0 {
			return nil, fmt.Errorf("rns: prime %d exceeds %d bits", p, uintmod.MaxModulusBits64)
		}
		if !primes.IsPrime(p) {
			return nil, fmt.Errorf("rns: modulus %d is not prime", p)
		}
		seen[p] = true
		b.Mods[i] = uintmod.NewModulus(p)
		b.q.Mul(b.q, new(big.Int).SetUint64(p))
	}
	b.invCross = make([][]uint64, len(ps))
	b.invCrossShoup = make([][]uint64, len(ps))
	for j := range ps {
		b.invCross[j] = make([]uint64, len(ps))
		b.invCrossShoup[j] = make([]uint64, len(ps))
		for i := range ps {
			if i == j {
				continue
			}
			inv := b.Mods[i].InvMod(b.Mods[i].Reduce(ps[j]))
			b.invCross[j][i] = inv
			b.invCrossShoup[j][i] = uintmod.ShoupPrecomp(inv, ps[i])
		}
	}
	return b, nil
}

// InvCross returns ([p_j^{-1}]_{p_i}, its w=64 Shoup constant) from the
// table precomputed at basis construction. It panics if i == j, which is
// never meaningful (a prime has no inverse modulo itself).
func (b *Basis) InvCross(j, i int) (inv, shoup uint64) {
	if i == j {
		panic("rns: InvCross of a prime with itself")
	}
	return b.invCross[j][i], b.invCrossShoup[j][i]
}

// K returns the number of primes in the basis.
func (b *Basis) K() int { return len(b.Primes) }

// Q returns a copy of the basis product q = Π p_i.
func (b *Basis) Q() *big.Int { return new(big.Int).Set(b.q) }

// QAtLevel returns Π_{i<=level} p_i.
func (b *Basis) QAtLevel(level int) *big.Int {
	q := big.NewInt(1)
	for i := 0; i <= level; i++ {
		q.Mul(q, new(big.Int).SetUint64(b.Primes[i]))
	}
	return q
}

// ReduceInt64 returns x mod p_i in [0, p_i).
func (b *Basis) ReduceInt64(x int64, i int) uint64 {
	p := b.Primes[i]
	if x >= 0 {
		return b.Mods[i].Reduce(uint64(x))
	}
	r := b.Mods[i].Reduce(uint64(-x))
	return uintmod.NegMod(r, p)
}
