package rns

import (
	"fmt"
	"math/big"
	"sync"
)

// Compose, ComposeCentered and Sub are the big-integer CRT that the
// word-sized Composer replaced in every product path; they are kept here
// as its oracle.

// crtTables holds a basis's CRT constants: π_i = q/p_i and
// [π_i^{-1}]_{p_i}.
type crtTables struct {
	punctured []*big.Int
	invPunc   []uint64
}

var crtByBasis sync.Map // *Basis → *crtTables

func (b *Basis) crt() *crtTables {
	if t, ok := crtByBasis.Load(b); ok {
		return t.(*crtTables)
	}
	t := &crtTables{punctured: make([]*big.Int, len(b.Primes)), invPunc: make([]uint64, len(b.Primes))}
	for i, p := range b.Primes {
		pi := new(big.Int).Div(b.q, new(big.Int).SetUint64(p))
		t.punctured[i] = pi
		rem := new(big.Int).Mod(pi, new(big.Int).SetUint64(p)).Uint64()
		t.invPunc[i] = b.Mods[i].InvMod(rem)
	}
	v, _ := crtByBasis.LoadOrStore(b, t)
	return v.(*crtTables)
}

// Sub returns the basis consisting of the first k primes.
func (b *Basis) Sub(k int) (*Basis, error) {
	if k < 1 || k > len(b.Primes) {
		return nil, fmt.Errorf("rns: sub-basis size %d out of range", k)
	}
	return NewBasis(b.Primes[:k])
}

// Compose reconstructs the unique x in [0, q) with x ≡ residues[i]
// (mod p_i) using the CRT formula of Section 2:
// x = Σ residues_i · π_i · [π_i^{-1}]_{p_i} (mod q).
func (b *Basis) Compose(residues []uint64) *big.Int {
	if len(residues) != len(b.Primes) {
		panic("rns: residue count mismatch")
	}
	t := b.crt()
	acc := new(big.Int)
	term := new(big.Int)
	for i := range b.Primes {
		c := b.Mods[i].MulMod(residues[i], t.invPunc[i])
		term.SetUint64(c)
		term.Mul(term, t.punctured[i])
		acc.Add(acc, term)
	}
	return acc.Mod(acc, b.q)
}

// ComposeCentered is Compose followed by centering into (-q/2, q/2].
func (b *Basis) ComposeCentered(residues []uint64) *big.Int {
	x := b.Compose(residues)
	half := new(big.Int).Rsh(b.q, 1)
	if x.Cmp(half) > 0 {
		x.Sub(x, b.q)
	}
	return x
}
