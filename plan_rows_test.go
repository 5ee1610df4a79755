package heax

import "heax/internal/uintmod"

// PlainRowShapes counts the multiplying plaintexts of p's MulPlain and
// RotateSum steps, and how many of them are stored compact.
func PlainRowShapes(p *Plan) (compact, total int) {
	for i := range p.steps {
		if st := &p.steps[i]; st.kind == stepMulPlain || st.kind == stepRotateSum {
			compact += p.compactFactors(st)
			total += len(plainFactors(st))
		}
	}
	return compact, total
}

// ExpandPlainRows gives every compact multiplier of p a full copy: each
// stored value written to the lanes it stands for. The compact
// plaintexts themselves are left as they were.
func ExpandPlainRows(p *Plan) {
	expand := func(pt *Plaintext) *Plaintext {
		if pt == nil || len(pt.Value.Coeffs[0]) == p.params.N {
			return pt
		}
		full := p.params.RingQP.NewPoly(pt.Value.Rows())
		for i, row := range pt.Value.Coeffs {
			for j := range full.Coeffs[i] {
				full.Coeffs[i][j] = row[j/uintmod.Lanes]
			}
		}
		return &Plaintext{Value: full, Scale: pt.Scale}
	}
	for i := range p.steps {
		st := &p.steps[i]
		switch st.kind {
		case stepMulPlain:
			st.pt = expand(st.pt)
		case stepRotateSum:
			pts := make([]*Plaintext, len(st.pts))
			for j, pt := range st.pts {
				pts[j] = expand(pt)
			}
			st.pts = pts
		}
	}
}

// PlanPlaintexts lists the plaintexts p's steps hold, step by step: a
// plain step's, a RotateSum's per operand (nil for a bare one), and each
// chain stage's (nil for a Rescale).
func PlanPlaintexts(p *Plan) []*Plaintext {
	var pts []*Plaintext
	for i := range p.steps {
		st := &p.steps[i]
		pts = append(pts, st.pt)
		pts = append(pts, st.pts...)
		for _, c := range st.chain {
			pts = append(pts, c.Pt)
		}
	}
	return pts
}
