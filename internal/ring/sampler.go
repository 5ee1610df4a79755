package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"

	"heax/internal/rns"
)

// Sampler draws the random polynomials the CKKS key-generation and
// encryption primitives need (Section 3: a ← U(R_qp), s ← χ, e ← Ω).
//
// Every draw reads one keystream: AES-256 in counter mode, keyed with
// SHA-256 over a fixed label and the seed's eight bytes, counter from
// zero. The stream is read a buffer of 64-bit words at a time and never
// rewinds, so successive calls on one sampler continue it, and a fresh
// sampler with the same seed reproduces everything an earlier one drew
// (the tests rely on that). The generator is cryptographic, but the
// secrecy of keys and encryptions rests entirely on the seed: a caller
// that needs them secret must pass one an adversary cannot guess, since
// an int64 is only 64 bits of key material.
//
// A Sampler is not safe for concurrent use.
type Sampler struct {
	ctx    *Context
	stream cipher.Stream
	// words holds the stream's latest samplerBufWords words, each the
	// little-endian image of its eight bytes; words[pos:] are unread.
	words [samplerBufWords]uint64
	pos   int
	// small holds one signed coefficient per position for the draws that
	// are the same integer on every row (Ternary, Error).
	small []int8
}

// samplerBufWords is how many keystream words one refill produces: 4 KiB
// of keystream, one XORKeyStream call.
const samplerBufWords = 512

// samplerLabel separates the sampler's key from any other SHA-256 of a
// seed.
const samplerLabel = "heax/ring.Sampler AES-256-CTR v1"

// zeroKeystream is the plaintext XORKeyStream encrypts: the keystream
// itself.
var zeroKeystream [samplerBufWords * 8]byte

// CBDWidth fixes the error distribution Ω: an error is a sum of CBDWidth
// fair ±1 trials, a centered binomial with standard deviation
// sqrt(CBDWidth/2) ≈ 3.24, matching the σ = 3.2 of the HE security
// standard the paper cites [1]. One 64-bit word draws an error: the
// popcount of its low CBDWidth bits less that of the next CBDWidth.
const CBDWidth = 21

// NewSampler creates a deterministic sampler for ctx from seed.
func NewSampler(ctx *Context, seed int64) *Sampler {
	var in [len(samplerLabel) + 8]byte
	copy(in[:], samplerLabel)
	binary.LittleEndian.PutUint64(in[len(samplerLabel):], uint64(seed))
	key := sha256.Sum256(in[:])
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	return &Sampler{ctx: ctx, stream: cipher.NewCTR(block, iv[:]), pos: samplerBufWords, small: make([]int8, ctx.N)}
}

// unread returns the buffer's unread words, refilling it from the
// keystream when none are left. The caller adds the number it uses to
// s.pos.
func (s *Sampler) unread() []uint64 {
	if s.pos == samplerBufWords {
		s.stream.XORKeyStream(rowBytes(s.words[:]), zeroKeystream[:])
		if !hostLittleEndian {
			for i, w := range s.words {
				s.words[i] = bits.ReverseBytes64(w)
			}
		}
		s.pos = 0
	}
	return s.words[s.pos:]
}

// UniformInto fills every row of p with independent uniform residues: by
// CRT this is exactly a ← U(R_q) for q the product of p's rows' primes.
// A residue is the high word of w·q for a keystream word w, and a draw
// whose low word falls below 2^64 mod q is thrown away (Lemire's
// multiply-shift rejection), so every residue is exactly equally likely.
func (s *Sampler) UniformInto(p *Poly) {
	for i, row := range p.Coeffs {
		q := s.ctx.Basis.Primes[i]
		reject := -q % q // 2^64 mod q
		for j := 0; j < len(row); {
			ws := s.unread()
			k := 0
			for ; k < len(ws) && j < len(row); k++ {
				hi, lo := bits.Mul64(ws[k], q)
				if lo >= reject {
					row[j] = hi
					j++
				}
			}
			s.pos += k
		}
	}
}

// ternaryOf maps a two-bit field to its ternary coefficient; the field 3
// is thrown away.
var ternaryOf = [4]int8{0, 1, -1, 0}

// TernaryInto fills p with one polynomial whose coefficients are uniform
// in {-1, 0, 1} (the key distribution χ), the same integer on every row.
// A coefficient is the next two-bit field of the keystream, 00 → 0,
// 01 → 1, 10 → -1, with 11 thrown away.
func (s *Sampler) TernaryInto(p *Poly) {
	small := s.small
	for j := 0; j < len(small); {
		ws := s.unread()
		k := 0
		for ; k < len(ws) && j < len(small); k++ {
			w := ws[k]
			for f := 0; f < 32 && j < len(small); f++ {
				t := w & 3
				w >>= 2
				small[j] = ternaryOf[t]
				j += int(t+1)>>2 ^ 1 // 0 for the field 3, else 1
			}
		}
		s.pos += k
	}
	s.fillSmall(p)
}

// ErrorInto fills p with one error polynomial from Ω (CBDWidth), the
// same integer on every row.
func (s *Sampler) ErrorInto(p *Poly) {
	const mask = 1<<CBDWidth - 1
	for j := 0; j < len(s.small); {
		ws := s.unread()
		dst := s.small[j:min(len(s.small), j+len(ws))]
		for k, w := range ws[:len(dst)] {
			dst[k] = int8(bits.OnesCount64(w&mask) - bits.OnesCount64(w>>CBDWidth&mask))
		}
		j += len(dst)
		s.pos += len(dst)
	}
	s.fillSmall(p)
}

// fillSmall writes the signed coefficients in small to every row of p,
// one row at a time.
func (s *Sampler) fillSmall(p *Poly) {
	for i, row := range p.Coeffs {
		q := s.ctx.Basis.Primes[i]
		for j, v := range s.small[:len(row)] {
			row[j] = uint64(int64(v)) + q&uint64(int64(v)>>63)
		}
	}
}

// InfNormSigned returns the max absolute centered value of a
// coefficient-domain polynomial as a float64: each coefficient composed
// from its rows in word-sized RNS arithmetic (rns.Composer, the
// composition Decode runs, at scale 1) and rounded to nearest, bit for
// bit what the big-integer CRT composition and big.Float would give. The composition's
// tables are built per call: this is a diagnostic (noise measurement),
// not a fast path.
func (c *Context) InfNormSigned(p *Poly) float64 {
	rows := p.Rows()
	comp := c.Basis.Composer(rows)
	one := rns.NewDivisor(1)
	tmp := make([]uint64, rows+comp.ScratchLen())
	res, tmp := tmp[:rows], tmp[rows:]
	max := 0.0
	for j := 0; j < c.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		if f := math.Abs(comp.Quo(res, &one, tmp)); f > max {
			max = f
		}
	}
	return max
}
