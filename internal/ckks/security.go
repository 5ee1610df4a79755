package ckks

import "fmt"

// Security estimation per the Homomorphic Encryption Security Standard
// (Albrecht et al., 2018) that the paper cites for its parameter choices:
// for each ring degree, the maximum total modulus width (log2 qp, counting
// the special prime) that keeps 128/192/256-bit classical security with a
// ternary secret.
//
// Table 1 of the standard (classical, ternary secret distribution):
var heStdMaxLogQP = map[int]map[int]int{
	// n: {security: max log qp}
	1 << 10: {128: 27, 192: 19, 256: 14},
	1 << 11: {128: 54, 192: 37, 256: 29},
	1 << 12: {128: 109, 192: 75, 256: 58},
	1 << 13: {128: 218, 192: 152, 256: 118},
	1 << 14: {128: 438, 192: 305, 256: 237},
	1 << 15: {128: 881, 192: 611, 256: 476},
}

// SecurityLevel returns the highest standard security level (256, 192 or
// 128 bits) the parameters meet, or an error when they fall below 128-bit
// security or use a ring degree outside the standard's table.
func (p *Params) SecurityLevel() (int, error) {
	row, ok := heStdMaxLogQP[p.N]
	if !ok {
		return 0, fmt.Errorf("ckks: no security table entry for n = %d", p.N)
	}
	logQP := p.TotalModulusBits()
	for _, lvl := range []int{256, 192, 128} {
		if logQP <= row[lvl] {
			return lvl, nil
		}
	}
	return 0, fmt.Errorf("ckks: log qp = %d exceeds the 128-bit bound %d for n = %d",
		logQP, row[128], p.N)
}
