package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/uintmod"
)

// chainOpSpec is one operation of a drawn chain: a floor (lifted by the
// caller for the first when the chain starts with one), a multiplier or
// an addend.
type chainOpSpec struct {
	kind   chainKind
	round  bool
	lifted bool
	m      *Poly    // a Mul's multiplier, one value per row
	x      [2]*Poly // an Add's components
}

// A FloorChain closed once must equal its operations one at a time:
// FloorInto for every floor, a scalar pass for every multiplier and an
// Add for every addend. The chains drop one to three primes — computed
// floors of IFMA rows and of scalar ones whose wide residues the IFMA
// rows must reduce, and a first floor of a prime from outside the rows,
// as a key switch's is, lifted by the caller (FloorTail) or by the close
// (Floor) — each floor or round, with and without addends after the
// value, with multipliers, with runs of addends longer than one
// VecLinComb pass, for one component and two, and landing on a fresh
// output or in place on the value.
func TestFloorChainMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		cases := 300
		if n > 64 {
			cases = 40
		}
		seen := map[string]bool{}
		for tc := 0; tc < cases; tc++ {
			kept := 1 + rng.Intn(3)
			lifted := rng.Intn(2) == 0
			computed := rng.Intn(4)
			if !lifted && computed == 0 {
				computed = 1
			}
			if lifted && computed == 3 {
				computed = 2
			}
			// A first floor of prime last: lifted by the caller, or by
			// the close from the value's row past the rest.
			selfLift := rng.Intn(2) == 0
			comps := 1 + rng.Intn(2)
			alias := rng.Intn(2) == 0
			live := kept + computed
			last := []int{6, 12}[rng.Intn(2)]
			if live <= 5 && rng.Intn(3) == 0 {
				last = 5 // a 58-bit special prime
			}
			// The value: live rows of their own primes, then the lifted
			// floor's row of prime last.
			aRows := live
			if lifted {
				aRows++
			}
			var a [2]*Poly
			for c := 0; c < comps; c++ {
				a[c] = ctx.NewPoly(aRows)
				for i := range a[c].Coeffs {
					prime := i
					if i == live {
						prime = last
					}
					copy(a[c].Coeffs[i], edgeRow(rng, n, ctx.Basis.Primes[prime]))
				}
			}
			addend := func() [2]*Poly {
				var x [2]*Poly
				for c := 0; c < comps; c++ {
					if c == 0 || rng.Intn(3) > 0 {
						x[c] = floorOperand(ctx, rng, live, last).Resize(live)
					}
				}
				return x
			}
			var ops []chainOpSpec
			if lifted {
				ops = append(ops, chainOpSpec{kind: chainFloor, lifted: true, round: rng.Intn(2) == 0})
				if rng.Intn(2) == 0 {
					ops = append(ops, chainOpSpec{kind: chainAdd, x: addend()})
				}
			}
			// One chain in eight has a run of addends, and a multiplier,
			// longer than one linear-combination pass takes.
			long := rng.Intn(8) == 0
			for f := 0; f < computed; f++ {
				pres := rng.Intn(3)
				if long && f == 0 {
					pres = 9 + rng.Intn(3)
				}
				for pre := pres; pre > 0; pre-- {
					if mul := rng.Intn(2) == 0; mul && !long || long && pre == 1 {
						m := &Poly{Coeffs: make([][]uint64, ctx.K())}
						for i, p := range ctx.Basis.Primes {
							m.Coeffs[i] = []uint64{1 + rng.Uint64()%(p-1)}
						}
						ops = append(ops, chainOpSpec{kind: chainMul, m: m})
					} else {
						ops = append(ops, chainOpSpec{kind: chainAdd, x: addend()})
					}
				}
				ops = append(ops, chainOpSpec{kind: chainFloor, round: rng.Intn(2) == 0})
			}

			// One at a time.
			var v [2]*Poly
			for c := 0; c < comps; c++ {
				v[c] = CopyOf(a[c])
			}
			rows := live
			for _, op := range ops {
				switch op.kind {
				case chainFloor:
					prime := last
					if !op.lifted {
						rows--
						prime = rows
					}
					w0, w1 := ctx.NewPolyPair(rows)
					if comps == 1 {
						w1 = nil
					}
					ctx.FloorInto(v[0], v[1], nil, nil, w0, w1, prime, op.round)
					v = [2]*Poly{w0, w1}
				case chainMul:
					for c := 0; c < comps; c++ {
						for i := 0; i < rows; i++ {
							m := ctx.Basis.Mods[i]
							for j, x := range v[c].Coeffs[i] {
								v[c].Coeffs[i][j] = m.MulMod(x, op.m.Coeffs[i][0])
							}
						}
					}
				case chainAdd:
					for c := 0; c < comps; c++ {
						if op.x[c] != nil {
							ctx.Add(v[c].Resize(rows), op.x[c].Resize(rows), v[c].Resize(rows))
						}
					}
				}
			}

			// Closed once.
			in := a
			if alias {
				in = [2]*Poly{CopyOf(a[0]), nil}
				if comps == 2 {
					in[1] = CopyOf(a[1])
				}
			}
			ch := ctx.FloorChain()
			ch.Add(in[0], in[1])
			var tail *Poly
			for _, op := range ops {
				switch op.kind {
				case chainFloor:
					if !op.lifted {
						ch.Floor(live-1, op.round)
						live--
						continue
					}
					if selfLift {
						ch.Floor(last, op.round)
						continue
					}
					tail = ctx.NewPoly(2)
					for c := 0; c < comps; c++ {
						pLast := ctx.Basis.Primes[last]
						ctx.Tables[last].InverseTo(tail.Coeffs[c], a[c].Coeffs[live])
						for j, x := range tail.Coeffs[c] {
							if op.round {
								tail.Coeffs[c][j] = uintmod.AddMod(x, pLast>>1, pLast)
							}
						}
					}
					ch.FloorTail(tail, 1, last, op.round)
				case chainMul:
					ch.Mul(op.m)
				case chainAdd:
					ch.Add(op.x[0], op.x[1])
				}
			}
			var out [2]*Poly
			for c := 0; c < comps; c++ {
				out[c] = ctx.NewPoly(kept)
				if alias {
					out[c] = in[c].Resize(kept)
				}
			}
			ch.Close(out[0], out[1])
			name := fmt.Sprintf("n=%d case %d: kept=%d lifted=%v (by the close %v) computed=%d comps=%d alias=%v last=%d ops=%d", n, tc, kept, lifted, selfLift, computed, comps, alias, last, len(ops))
			for c := 0; c < comps; c++ {
				if !out[c].Equal(v[c]) {
					t.Fatalf("%s: component %d differs from the floors one at a time", name, c)
				}
			}
			seen[fmt.Sprintf("drops=%d lifted=%v", computed+map[bool]int{true: 1}[lifted], lifted)] = true
		}
		if len(seen) != 6 {
			t.Fatalf("n=%d: chain shapes drawn: %v", n, seen)
		}
	}
}
