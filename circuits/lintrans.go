package circuits

import (
	"fmt"
	"math"
	"sort"

	"heax"
)

// LinearTransform is an encrypted linear map in diagonal form: the
// slot-sized matrix whose d-th generalized diagonal is the period-
// Dimension tiling of Diagonals[d]. Applied to an input ciphertext x it
// computes, slot-wise,
//
//	y[i] = Σ_d tile(Diagonals[d])[i] · x[(i+d) mod slots]
//
// which realizes the two layouts encrypted ML needs:
//
//   - a dense n×n (or padded non-square) matrix×vector product — build
//     it with FromMatrix and encrypt the vector replicated with period
//     Dimension (see Replicate), so the cyclic rotations wrap inside
//     each replica;
//   - a block transform applied to every Dimension-sized block of the
//     slot vector at once — e.g. BatchedDot, which scores slots/n
//     samples against one weight vector with no replication at all.
//
// Apply emits baby-step/giant-step rotation structure: writing each
// diagonal index d = g·n1 + b, the baby rotations rot(x, b) are shared
// by every giant-step group,
//
//	y = Σ_g rot( Σ_b prerot(diag_{g·n1+b}, −g·n1) ⊙ rot(x, b), g·n1 )
//
// so a dimension-n transform needs at most n1 + n/n1 ≈ 2√n distinct
// rotations instead of n — and because every baby step rotates the same
// source ciphertext, Compile merges the whole baby group into one
// hoisted-decomposition batch.
type LinearTransform struct {
	// Dimension is the transform size n: a power of two, so the period
	// always divides the slot count of whatever parameter set the
	// circuit is later compiled for (Compile rejects n > slots).
	Dimension int
	// Diagonals maps a diagonal index (taken modulo Dimension) to its
	// values. Vectors shorter than Dimension are zero-padded; absent and
	// all-zero diagonals cost nothing.
	Diagonals map[int][]complex128
	// BabyDim overrides the baby-step count n1 (a power of two dividing
	// Dimension). Zero selects the n1 minimizing the number of distinct
	// rotations for the diagonals actually present.
	BabyDim int
}

// FromMatrix builds the transform computing y = m·x for an arbitrary
// rows×cols matrix: m is zero-padded to the next power-of-two dimension
// n ≥ max(rows, cols), so slots 0..rows-1 of the result hold m·x and
// the rest of each n-block holds zero. The input vector must be
// encrypted replicated with period n (Replicate).
func FromMatrix(m [][]complex128) (*LinearTransform, error) {
	rows := len(m)
	if rows == 0 {
		return nil, fmt.Errorf("circuits: FromMatrix: empty matrix: %w", ErrInvalidArgument)
	}
	cols := len(m[0])
	for i, r := range m {
		if len(r) != cols {
			return nil, fmt.Errorf("circuits: FromMatrix: row %d has %d columns, row 0 has %d: %w", i, len(r), cols, ErrInvalidArgument)
		}
	}
	if cols == 0 {
		return nil, fmt.Errorf("circuits: FromMatrix: empty rows: %w", ErrInvalidArgument)
	}
	n := nextPow2(max(rows, cols))
	diags := make(map[int][]complex128)
	for d := 0; d < n; d++ {
		var diag []complex128
		for i := 0; i < rows; i++ {
			j := (i + d) % n
			if j >= cols {
				continue
			}
			if v := m[i][j]; v != 0 {
				if diag == nil {
					diag = make([]complex128, n)
				}
				diag[i] = v
			}
		}
		if diag != nil {
			diags[d] = diag
		}
	}
	if len(diags) == 0 {
		// The zero matrix is a valid (degenerate) transform; keep an
		// explicit zero diagonal so Apply emits the zero vector.
		diags[0] = make([]complex128, n)
	}
	return &LinearTransform{Dimension: n, Diagonals: diags}, nil
}

// FromRealMatrix is FromMatrix for a real matrix.
func FromRealMatrix(m [][]float64) (*LinearTransform, error) {
	cm := make([][]complex128, len(m))
	for i, r := range m {
		cm[i] = make([]complex128, len(r))
		for j, v := range r {
			cm[i][j] = complex(v, 0)
		}
	}
	return FromMatrix(cm)
}

// BatchedDot builds the block transform scoring every Dimension-sized
// slot block against one weight vector: with n = nextPow2(len(w)), slot
// i of the result holds Σ_j w[j]·x[i+j] when i ≡ 0 (mod n) and zero
// otherwise. Packing one sample's features per block, a single
// ciphertext scores slots/n samples in one transform — the layout the
// logistic-regression example serves.
func BatchedDot(w []float64) (*LinearTransform, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("circuits: BatchedDot: empty weight vector: %w", ErrInvalidArgument)
	}
	n := nextPow2(len(w))
	diags := make(map[int][]complex128, len(w))
	for d, v := range w {
		if v == 0 {
			continue
		}
		diag := make([]complex128, n)
		diag[0] = complex(v, 0)
		diags[d] = diag
	}
	if len(diags) == 0 {
		diags[0] = make([]complex128, n)
	}
	return &LinearTransform{Dimension: n, Diagonals: diags}, nil
}

// Replicate lays out a length ≤ dim vector for a dimension-dim
// transform: zero-padded to dim and tiled across all slots, so every
// cyclic rotation by step < dim wraps inside each replica.
func Replicate(x []complex128, dim, slots int) ([]complex128, error) {
	if dim < 1 || dim&(dim-1) != 0 {
		return nil, fmt.Errorf("circuits: Replicate: dimension %d must be a power of two: %w", dim, ErrInvalidArgument)
	}
	if len(x) > dim {
		return nil, fmt.Errorf("circuits: Replicate: %d values exceed dimension %d: %w", len(x), dim, ErrInvalidArgument)
	}
	if slots < dim || slots%dim != 0 {
		return nil, fmt.Errorf("circuits: Replicate: dimension %d does not divide %d slots: %w", dim, slots, ErrInvalidArgument)
	}
	out := make([]complex128, slots)
	for i := range out {
		if j := i % dim; j < len(x) {
			out[i] = x[j]
		}
	}
	return out, nil
}

// ReplicateReal is Replicate for a real vector.
func ReplicateReal(x []float64, dim, slots int) ([]complex128, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return Replicate(cx, dim, slots)
}

// bsgsPlan is the validated BSGS decomposition of a transform: the
// canonical nonzero diagonals grouped as d = g·n1 + b.
type bsgsPlan struct {
	n, n1 int
	// diags[d] is the dimension-length nonzero diagonal at canonical
	// index d ∈ [0, n).
	diags map[int][]complex128
	// order lists the canonical indices ascending, for deterministic
	// emission (the serve plan cache keys on the circuit's JSON bytes).
	order []int
}

func (lt *LinearTransform) plan() (*bsgsPlan, error) {
	n := lt.Dimension
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("circuits: LinearTransform: dimension %d must be a power of two: %w", n, ErrInvalidArgument)
	}
	if len(lt.Diagonals) == 0 {
		return nil, fmt.Errorf("circuits: LinearTransform: no diagonals: %w", ErrInvalidArgument)
	}
	p := &bsgsPlan{n: n, diags: make(map[int][]complex128, len(lt.Diagonals))}
	for d, vec := range lt.Diagonals {
		if len(vec) > n {
			return nil, fmt.Errorf("circuits: LinearTransform: diagonal %d has %d values, dimension is %d: %w", d, len(vec), n, ErrInvalidArgument)
		}
		cd := ((d % n) + n) % n
		if _, dup := p.diags[cd]; dup {
			return nil, fmt.Errorf("circuits: LinearTransform: diagonals %d and %d coincide modulo dimension %d: %w", d, cd, n, ErrInvalidArgument)
		}
		full := make([]complex128, n)
		zero := true
		for i, v := range vec {
			if !isFinite(v) {
				return nil, fmt.Errorf("circuits: LinearTransform: diagonal %d value %d is %g: %w", d, i, v, ErrInvalidArgument)
			}
			if v != 0 {
				zero = false
			}
			full[i] = v
		}
		if zero {
			continue
		}
		p.diags[cd] = full
	}
	for d := range p.diags {
		p.order = append(p.order, d)
	}
	sort.Ints(p.order)
	p.n1 = lt.BabyDim
	if p.n1 != 0 {
		if p.n1 < 1 || p.n1 > n || p.n1&(p.n1-1) != 0 {
			return nil, fmt.Errorf("circuits: LinearTransform: baby dimension %d must be a power of two dividing %d: %w", p.n1, n, ErrInvalidArgument)
		}
	} else {
		p.n1 = p.pickBabyDim()
	}
	return p, nil
}

// pickBabyDim chooses the n1 minimizing the number of distinct
// key-switched rotations (nonzero baby steps + nonzero giant steps) for
// the diagonals present, preferring larger n1 on ties — more babies
// means a bigger hoisted batch sharing one decomposition.
func (p *bsgsPlan) pickBabyDim() int {
	best, bestCost := p.n, math.MaxInt
	for n1 := 1; n1 <= p.n; n1 <<= 1 {
		babies := make(map[int]bool)
		giants := make(map[int]bool)
		for _, d := range p.order {
			if b := d % n1; b != 0 {
				babies[b] = true
			}
			if g := d - d%n1; g != 0 {
				giants[g] = true
			}
		}
		if cost := len(babies) + len(giants); cost <= bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// Rotations reports the distinct nonzero rotation steps Apply will
// emit, ascending — the Galois keys the transform alone needs. (For a
// whole circuit, heax.Circuit.RequiredRotations subsumes this.)
func (lt *LinearTransform) Rotations() ([]int, error) {
	p, err := lt.plan()
	if err != nil {
		return nil, err
	}
	need := make(map[int]bool)
	for _, d := range p.order {
		if b := d % p.n1; b != 0 {
			need[b] = true
		}
		if g := d - d%p.n1; g != 0 {
			need[g] = true
		}
	}
	steps := make([]int, 0, len(need))
	for s := range need {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps, nil
}

// Apply emits the transform's BSGS dataflow into the circuit and
// returns the output node. The baby-step rotations share in as their
// source, so Compile hoists them into one decomposition batch; each
// giant-step group costs one further rotation. An all-zero transform
// degenerates to the zero vector.
func (lt *LinearTransform) Apply(c *heax.Circuit, in heax.Node) (heax.Node, error) {
	p, err := lt.plan()
	if err != nil {
		return heax.Node{}, err
	}
	if len(p.order) == 0 {
		// Every diagonal is zero: the result is the zero vector.
		return c.MulConst(in, 0), nil
	}
	// Baby-step rotations, built once and shared across giant groups.
	babies := make(map[int]heax.Node)
	for _, d := range p.order {
		if b := d % p.n1; b != 0 {
			if _, ok := babies[b]; !ok {
				babies[b] = c.Rotate(in, b)
			}
		}
	}
	babies[0] = in

	// Each giant group's inner sum is a chain of Adds over MulPlains that
	// nothing else reads, and the giant rotations and the Adds joining
	// them read nothing else either: Compile fuses the whole giant step
	// into one RotateSum, so the products, inner sums, rotations and
	// partial sums written here are never materialized.
	var acc heax.Node
	accSet := false
	for gi := 0; gi < len(p.order); {
		g := p.order[gi] - p.order[gi]%p.n1
		var inner heax.Node
		innerSet := false
		for ; gi < len(p.order) && p.order[gi]-p.order[gi]%p.n1 == g; gi++ {
			d := p.order[gi]
			term := c.MulPlainPeriodic(babies[d%p.n1], prerotate(p.diags[d], g, p.n))
			if !innerSet {
				inner, innerSet = term, true
			} else {
				inner = c.Add(inner, term)
			}
		}
		if g != 0 {
			inner = c.Rotate(inner, g)
		}
		if !accSet {
			acc, accSet = inner, true
		} else {
			acc = c.Add(acc, inner)
		}
	}
	return acc, nil
}

// prerotate rotates a diagonal right by k positions (rot_{-k}), the
// plaintext pre-rotation that lets the giant-step rotation be applied
// once to the whole inner sum: rot_k(prerot(v) ⊙ rot_b(x)) =
// v ⊙ rot_{k+b}(x) slot-for-slot.
func prerotate(v []complex128, k, n int) []complex128 {
	if k%n == 0 {
		return v
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = v[((i-k)%n+n)%n]
	}
	return out
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func isFinite(v complex128) bool {
	return !math.IsNaN(real(v)) && !math.IsInf(real(v), 0) &&
		!math.IsNaN(imag(v)) && !math.IsInf(imag(v), 0)
}
