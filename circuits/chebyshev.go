package circuits

import (
	"fmt"
	"math"

	"heax"
)

// MaxDegree bounds Polynomial degrees: the encrypted evaluator works in
// the monomial basis of the normalized variable, and converting
// Chebyshev coefficients grows them by up to 2^degree — beyond 31 the
// conversion would eat more float64 mantissa than CKKS noise leaves in
// the first place.
const MaxDegree = 31

// Polynomial is a polynomial approximation over [A, B] in Chebyshev
// form: p(x) = Σ_j Coeffs[j]·T_j(u) with u = (2x − A − B)/(B − A) the
// affine map of [A, B] onto [−1, 1]. Build one with Approximate (or the
// stock Sigmoid, Exp, Inverse), check it in the clear with Eval, and
// emit its encrypted evaluation with Apply.
type Polynomial struct {
	Coeffs []float64
	A, B   float64
}

// Approximate interpolates f at the degree+1 Chebyshev nodes of [a, b]
// — the near-minimax approximation whose error decays geometrically in
// the degree for analytic f. The returned polynomial carries exactly
// degree+1 Chebyshev coefficients.
func Approximate(f func(float64) float64, a, b float64, degree int) (Polynomial, error) {
	if degree < 0 || degree > MaxDegree {
		return Polynomial{}, fmt.Errorf("circuits: Approximate: degree %d out of range [0, %d]: %w", degree, MaxDegree, ErrInvalidArgument)
	}
	if !(a < b) || math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return Polynomial{}, fmt.Errorf("circuits: Approximate: invalid interval [%g, %g]: %w", a, b, ErrInvalidArgument)
	}
	n := degree + 1
	mid, half := (a+b)/2, (b-a)/2
	fx := make([]float64, n)
	for k := 0; k < n; k++ {
		x := mid + half*math.Cos(math.Pi*(float64(k)+0.5)/float64(n))
		fx[k] = f(x)
		if math.IsNaN(fx[k]) || math.IsInf(fx[k], 0) {
			return Polynomial{}, fmt.Errorf("circuits: Approximate: f(%g) = %g: %w", x, fx[k], ErrInvalidArgument)
		}
	}
	coeffs := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += fx[k] * math.Cos(math.Pi*float64(j)*(float64(k)+0.5)/float64(n))
		}
		coeffs[j] = 2 / float64(n) * sum
	}
	coeffs[0] /= 2
	return Polynomial{Coeffs: coeffs, A: a, B: b}, nil
}

// Degree is the polynomial degree (ignoring trailing zero
// coefficients).
func (p Polynomial) Degree() int {
	d := len(p.Coeffs) - 1
	for d > 0 && p.Coeffs[d] == 0 {
		d--
	}
	return d
}

// Eval evaluates the polynomial at x by Clenshaw recurrence — the
// numerically stable cleartext oracle encrypted evaluations are tested
// against.
func (p Polynomial) Eval(x float64) float64 {
	u := (2*x - p.A - p.B) / (p.B - p.A)
	var b1, b2 float64
	for j := len(p.Coeffs) - 1; j >= 1; j-- {
		b1, b2 = 2*u*b1-b2+p.Coeffs[j], b1
	}
	if len(p.Coeffs) == 0 {
		return 0
	}
	return u*b1 - b2 + p.Coeffs[0]
}

// Apply emits the encrypted evaluation of p at the input node using a
// Paterson–Stockmeyer baby-step/giant-step scheme over the normalized
// variable u: baby powers u^2..u^(k−1) by balanced splitting, giant
// powers u^k, u^2k, ... by squaring, and the coefficient blocks
// combined by recursive halving — about √d + log₂ d relinearizations
// at multiplicative depth ⌈log₂ d⌉ + O(1) on the scale ladder, against
// the d−1 relinearizations and depth d of Horner's rule. All scale and
// level maintenance is left to Compile's inference.
//
// The approximation (and the CKKS noise bound) only holds for inputs
// inside [A, B]; slots outside it see the polynomial's unbounded
// extrapolation.
//
// Apply bounds the node it returns (heax.Circuit.Bound) by Σ|Coeffs[j]|,
// which |T_j(u)| ≤ 1 makes exact for inputs inside [A, B] — the
// contract the approximation already rests on (1.415 for Sigmoid(7)). A
// circuit whose outputs are all such values can be compiled lower in the
// modulus chain. An all-zero polynomial gets no bound.
func (p Polynomial) Apply(c *heax.Circuit, in heax.Node) (heax.Node, error) {
	node, err := p.apply(c, in)
	if err != nil {
		return node, err
	}
	bound := 0.0
	for _, v := range p.Coeffs {
		bound += math.Abs(v)
	}
	if bound > 0 {
		c.Bound(node, bound)
	}
	return node, nil
}

func (p Polynomial) apply(c *heax.Circuit, in heax.Node) (heax.Node, error) {
	if len(p.Coeffs) == 0 {
		return heax.Node{}, fmt.Errorf("circuits: Polynomial: no coefficients: %w", ErrInvalidArgument)
	}
	if len(p.Coeffs)-1 > MaxDegree {
		return heax.Node{}, fmt.Errorf("circuits: Polynomial: degree %d exceeds %d: %w", len(p.Coeffs)-1, MaxDegree, ErrInvalidArgument)
	}
	if !(p.A < p.B) || math.IsInf(p.A, 0) || math.IsInf(p.B, 0) || math.IsNaN(p.A) || math.IsNaN(p.B) {
		return heax.Node{}, fmt.Errorf("circuits: Polynomial: invalid interval [%g, %g]: %w", p.A, p.B, ErrInvalidArgument)
	}
	for j, v := range p.Coeffs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return heax.Node{}, fmt.Errorf("circuits: Polynomial: coefficient %d is %g: %w", j, v, ErrInvalidArgument)
		}
	}
	// Chebyshev → monomial coefficients in u, trailing zeros trimmed.
	// Coefficients below 10⁻¹² of the largest are numerical zeros of the
	// interpolation (e.g. the even coefficients of an odd function like
	// the centered sigmoid) and are dropped: their contribution is far
	// below CKKS noise, and encoding them would trip the compiler's
	// ErrUnencodable guard.
	ms := dropNegligible(chebToMonomial(p.Coeffs[:p.Degree()+1]))
	s := 2 / (p.B - p.A)
	t := -(p.A + p.B) / (p.B - p.A)
	d := len(ms) - 1
	if d == 0 {
		// A constant: pin every slot to it (the MulConst 0 collapses the
		// input's contribution on the ladder).
		return c.AddConst(c.MulConst(in, 0), ms[0]), nil
	}
	if d == 1 {
		// Affine in x directly: m1·u + m0 = (m1·s)·x + (m1·t + m0).
		return c.AddConst(c.MulConst(in, ms[1]*s), ms[1]*t+ms[0]), nil
	}
	u := c.MulConst(in, s)
	if t != 0 {
		u = c.AddConst(u, t)
	}
	// Baby powers u^1..u^(k−1) by balanced splitting (depth ⌈log₂ j⌉);
	// unused ones are dead nodes Compile prunes.
	k := babyDim(d)
	pow := make([]heax.Node, k)
	pow[1] = u
	for j := 2; j < k; j++ {
		pow[j] = c.MulRelin(pow[(j+1)/2], pow[j/2])
	}
	// Giant powers u^k, u^2k, u^4k, ... up to the degree, by squaring.
	var giants []heax.Node
	g := c.MulRelin(half(pow, k), half(pow, k))
	for gk := k; gk <= d; gk <<= 1 {
		giants = append(giants, g)
		if gk<<1 <= d {
			g = c.MulRelin(g, g)
		}
	}
	ps := &psEval{c: c, pow: pow, giants: giants, k: k}
	node, isConst, cval := ps.eval(ms)
	if isConst {
		// Cannot happen for d ≥ 2 (the leading coefficient is nonzero),
		// but keep the degenerate path total.
		return c.AddConst(c.MulConst(in, 0), cval), nil
	}
	return node, nil
}

// half returns u^(k/2) for the first giant's squaring (k is a power of
// two ≥ 2, so k/2 is always a valid baby index).
func half(pow []heax.Node, k int) heax.Node { return pow[k/2] }

// babyDim picks the power-of-two baby count k ≈ √(d+1), balancing the
// k−2 baby relins against the ~d/k block combines.
func babyDim(d int) int {
	k := 2
	for k*k < d+1 {
		k <<= 1
	}
	return k
}

// psEval combines coefficient blocks by recursive halving: split the
// polynomial at the largest giant power ≤ its degree, so the combine
// tree has logarithmic depth instead of Horner's linear chain.
type psEval struct {
	c      *heax.Circuit
	pow    []heax.Node
	giants []heax.Node // giants[i] = u^(k·2^i)
	k      int
}

// eval returns the node computing Σ_j ms[j]·u^j, or (when every term
// with j ≥ 1 vanishes) the pure constant ms[0] for the caller to fold
// into an addition.
func (ps *psEval) eval(ms []float64) (node heax.Node, isConst bool, cval float64) {
	d := len(ms) - 1
	for d >= 0 && ms[d] == 0 {
		d--
	}
	if d < 0 {
		return heax.Node{}, true, 0
	}
	if d == 0 {
		return heax.Node{}, true, ms[0]
	}
	if d < ps.k {
		set := false
		for j := 1; j <= d; j++ {
			if ms[j] == 0 {
				continue
			}
			term := ps.c.MulConst(ps.pow[j], ms[j])
			if !set {
				node, set = term, true
			} else {
				node = ps.c.Add(node, term)
			}
		}
		if ms[0] != 0 {
			node = ps.c.AddConst(node, ms[0])
		}
		return node, false, 0
	}
	// Largest giant power k·2^i ≤ d; splitting there keeps the high half
	// strictly smaller, so the recursion halves the degree each level.
	i := 0
	for ps.k<<(i+1) <= d {
		i++
	}
	gk := ps.k << i
	hiN, hiConst, hiC := ps.eval(ms[gk:])
	loN, loConst, loC := ps.eval(ms[:gk])
	var hi heax.Node
	hiSet := false
	switch {
	case hiConst && hiC == 0:
		// High half vanished entirely; only the low half remains.
	case hiConst:
		hi, hiSet = ps.c.MulConst(ps.giants[i], hiC), true
	default:
		hi, hiSet = ps.c.MulRelin(hiN, ps.giants[i]), true
	}
	switch {
	case !hiSet && loConst:
		return heax.Node{}, true, loC
	case !hiSet:
		return loN, false, 0
	case loConst && loC == 0:
		return hi, false, 0
	case loConst:
		return ps.c.AddConst(hi, loC), false, 0
	default:
		return ps.c.Add(hi, loN), false, 0
	}
}

// dropNegligible zeroes coefficients smaller than 10⁻¹² of the largest
// magnitude and trims trailing zeros (keeping at least the constant
// term), so numerically-zero interpolation residue never reaches the
// encoder.
func dropNegligible(ms []float64) []float64 {
	mx := 0.0
	for _, v := range ms {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	for j, v := range ms {
		if math.Abs(v) < mx*1e-12 {
			ms[j] = 0
		}
	}
	for len(ms) > 1 && ms[len(ms)-1] == 0 {
		ms = ms[:len(ms)-1]
	}
	return ms
}

// chebToMonomial converts Chebyshev coefficients over u to monomial
// coefficients over u via the T_{j+1} = 2u·T_j − T_{j−1} recurrence.
func chebToMonomial(cheb []float64) []float64 {
	n := len(cheb)
	ms := make([]float64, n)
	tPrev := []float64{1}   // T_0
	tCur := []float64{0, 1} // T_1
	for j := 0; j < n; j++ {
		var tj []float64
		switch j {
		case 0:
			tj = tPrev
		case 1:
			tj = tCur
		default:
			tj = make([]float64, j+1)
			for i, v := range tCur {
				tj[i+1] += 2 * v
			}
			for i, v := range tPrev {
				tj[i] -= v
			}
			tPrev, tCur = tCur, tj
		}
		for i, v := range tj {
			ms[i] += cheb[j] * v
		}
	}
	for len(ms) > 1 && ms[len(ms)-1] == 0 {
		ms = ms[:len(ms)-1]
	}
	return ms
}

// Sigmoid is the ready-made Chebyshev approximation of the logistic
// function 1/(1+e^−x) over [−8, 8] — the activation of encrypted
// logistic-regression inference. Degree 7 stays within 3·10⁻² of the
// true sigmoid over the interval, degree 15 within 2·10⁻³ (see the
// package tests for the pinned bounds per degree). Panics if degree is
// outside [1, MaxDegree].
func Sigmoid(degree int) Polynomial {
	return mustApproximate("Sigmoid", func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, -8, 8, degree)
}

// Exp is the ready-made Chebyshev approximation of eˣ over [−1, 1]
// (degree 7 is accurate to ~3·10⁻⁷). Panics if degree is outside
// [1, MaxDegree].
func Exp(degree int) Polynomial {
	return mustApproximate("Exp", math.Exp, -1, 1, degree)
}

// Inverse is the ready-made Chebyshev approximation of 1/x over
// [0.5, 2] — the homomorphic reciprocal for inputs normalized into that
// interval. Panics if degree is outside [1, MaxDegree].
func Inverse(degree int) Polynomial {
	return mustApproximate("Inverse", func(x float64) float64 { return 1 / x }, 0.5, 2, degree)
}

// mustApproximate backs the fixed-function constructors (Sigmoid,
// Inverse, ...), whose panic-on-bad-degree contract is documented on
// each of them: the degree is a literal at the call site, so misuse is
// a programming error caught on first run, never a request-path crash.
func mustApproximate(name string, f func(float64) float64, a, b float64, degree int) Polynomial {
	if degree < 1 || degree > MaxDegree {
		//heax:allowpanic documented constructor-misuse contract
		panic(fmt.Sprintf("circuits: %s: degree %d out of range [1, %d]", name, degree, MaxDegree))
	}
	p, err := Approximate(f, a, b, degree)
	if err != nil {
		//heax:allowpanic unreachable: fixed finite interval
		panic(fmt.Sprintf("circuits: %s: %v", name, err))
	}
	return p
}
