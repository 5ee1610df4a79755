package heax

// A level drop is a view: Compile lowers a rescaled value a level by
// reading its first rows, with no step, and every step reads each operand
// at its own input level. These plans read a value above the level a step
// works at in each place a view can reach.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// viewRead is one operand a run reads through a view: operand arg of
// step holds a ciphertext at level, above the step's input level.
type viewRead struct {
	step, arg, level int
}

// viewReads lists the operands of p that a run on in reads below their
// own level: an input given above the step's input level, or a value
// whose producer works above it.
func viewReads(p *Plan, in map[string]*Ciphertext) []viewRead {
	level := make([]int, p.nSlots)
	for _, pi := range p.inputs {
		level[pi.slot] = in[pi.name].Level
	}
	var reads []viewRead
	for i, st := range p.steps {
		for j, a := range st.args {
			if level[a] > st.inLevel() {
				reads = append(reads, viewRead{step: i, arg: j, level: level[a]})
			}
		}
		for _, o := range st.outs {
			level[o] = st.level
		}
	}
	return reads
}

// TestPlanViewReads: a descended value read as the operand of a fused
// chain's head, as the unrotated addend of a fused RotateSum and as a
// MulRelin operand, and an input given above InputLevel() read by two
// steps at different levels. Every run equals the step-by-step replay bit
// for bit and decrypts within a fixed bound, and no step multiplies by an
// encoded q_ℓ: the views replaced the lift-and-Rescale hop. A rescaled
// value and a rotation below it never share a scale, so the addend read
// through a view is an input given above a placed plan's input level.
func TestPlanViewReads(t *testing.T) {
	const bound = 1e-5
	k := newOracleKit(t, SetB, []int{1}, false)
	rng := rand.New(rand.NewSource(41))
	vals := func() []float64 {
		v := make([]float64, 4)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	xs, ys := vals(), vals()
	in := map[string]*Ciphertext{"x": k.encrypt(t, xs), "y": k.encrypt(t, ys)}
	// Slots past the payload are zero, so a rotation by one reads 0 into
	// the payload's last slot.
	rot1 := func(v []float64, i int) float64 {
		if i+1 < len(v) {
			return v[i+1]
		}
		return 0
	}
	// readBy reports whether a view read is by a step that ok accepts.
	readBy := func(ok func(st *planStep, r viewRead) bool) func(p *Plan, reads []viewRead) bool {
		return func(p *Plan, reads []viewRead) bool {
			for _, r := range reads {
				if ok(&p.steps[r.step], r) {
					return true
				}
			}
			return false
		}
	}
	for _, tc := range []struct {
		name  string
		build func(c *Circuit, x, y Node) Node
		want  func(i int) float64
		// covers reports whether the plan's view reads include one in the
		// place the case is about.
		covers func(p *Plan, reads []viewRead) bool
	}{
		{
			name: "chain head",
			// x·y rescales to L2, where x is read as a view by the next
			// product, which the Rescale its consumer needs fuses after it.
			build: func(c *Circuit, x, y Node) Node {
				return c.AddConst(c.MulRelin(c.MulRelin(c.MulRelin(x, y), x), y), 0.5)
			},
			want: func(i int) float64 { return xs[i]*ys[i]*xs[i]*ys[i] + 0.5 },
			covers: readBy(func(st *planStep, _ viewRead) bool {
				return st.kind == stepMulRelin && st.chain != nil
			}),
		},
		{
			name: "MulRelin operand",
			build: func(c *Circuit, x, y Node) Node {
				return c.MulRelin(c.MulRelin(x, y), y)
			},
			want: func(i int) float64 { return xs[i] * ys[i] * ys[i] },
			covers: readBy(func(st *planStep, _ viewRead) bool {
				return st.kind == stepMulRelin && st.chain == nil
			}),
		},
		{
			name: "RotateSum addend",
			build: func(c *Circuit, x, y Node) Node {
				return c.Bound(c.Add(c.Rotate(x, 1), y), 2)
			},
			want: func(i int) float64 { return rot1(xs, i) + ys[i] },
			covers: readBy(func(st *planStep, r viewRead) bool {
				if st.kind != stepRotateSum {
					return false
				}
				lo := 0
				for term, hi := range st.ends {
					if lo == r.arg && hi == lo+1 && st.pts[lo] == nil && st.rots[term] == 0 {
						return true
					}
					lo = hi
				}
				return false
			}),
		},
		{
			name: "input above InputLevel",
			build: func(c *Circuit, x, y Node) Node {
				return c.Bound(c.MulRelin(c.MulRelin(x, x), x), 1)
			},
			want: func(i int) float64 { return xs[i] * xs[i] * xs[i] },
			covers: func(p *Plan, reads []viewRead) bool {
				levels := map[int]bool{}
				for _, r := range reads {
					st := &p.steps[r.step]
					if p.producer[st.args[r.arg]] < 0 && r.level > p.inputLevel {
						levels[st.inLevel()] = true
					}
				}
				return len(levels) >= 2
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCircuit()
			c.Output("z", tc.build(c, c.Input("x"), c.Input("y")))
			p, err := c.Compile(k.params, k.evk)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range p.steps {
				pts := append([]*Plaintext{st.pt}, st.pts...)
				for _, s := range st.chain {
					pts = append(pts, s.Pt)
				}
				for _, pt := range pts {
					for level, q := range p.params.Q {
						if pt != nil && pt.Scale == float64(q) {
							t.Fatalf("step %d multiplies by an encoded q_%d\n%s", i, level, p.Describe())
						}
					}
				}
			}
			if !tc.covers(p, viewReads(p, in)) {
				t.Fatalf("the plan reads no view where the case needs one\n%s", p.Describe())
			}
			want := replayPlan(t, p, in)
			for _, crew := range []int{1, 4} {
				setCrew(p, crew)
				got, err := p.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				if !ctBitEqual(want["z"], got["z"]) {
					t.Fatalf("crew %d: output differs from the step-by-step replay\n%s", crew, p.Describe())
				}
			}
			pt, err := k.decryptor.Decrypt(want["z"])
			if err != nil {
				t.Fatal(err)
			}
			dec := k.enc.Decode(pt)
			worst := 0.0
			for i := range xs {
				worst = max(worst, math.Abs(real(dec[i])-tc.want(i)))
			}
			if worst > bound {
				t.Fatalf("decrypts %s off by %.3g, bound %g\n%s", fmt.Sprint(dec[:len(xs)]), worst, bound, p.Describe())
			}
			t.Logf("input level %d, largest error %.3g\n%s", p.InputLevel(), worst, p.Describe())
		})
	}
}
