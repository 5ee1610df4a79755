package heax

import (
	"io"

	"heax/internal/ckks"
	"heax/internal/ring"
)

// The scheme types are aliases of the implementation layer, so values
// returned by the public API interoperate with everything the internal
// packages produce (and keep their methods: Params.MaxLevel,
// Ciphertext.Degree, Encoder.Decode, ...).

// Params fixes a CKKS instantiation: ring degree, RNS modulus chain,
// special prime and default scale.
type Params = ckks.Params

// ParamSpec describes a parameter set by bit sizes, as the paper's
// Table 2 does.
type ParamSpec = ckks.ParamSpec

// Ciphertext is an RNS/NTT-form CKKS ciphertext.
type Ciphertext = ckks.Ciphertext

// Plaintext is an encoded (unencrypted) message.
type Plaintext = ckks.Plaintext

// Poly is an RNS polynomial over the parameter basis — the unit the
// HEAX KeySwitch module operates on.
type Poly = ring.Poly

// Key material.
type (
	SecretKey          = ckks.SecretKey
	PublicKey          = ckks.PublicKey
	SwitchingKey       = ckks.SwitchingKey
	RelinearizationKey = ckks.RelinearizationKey
	GaloisKey          = ckks.GaloisKey
	GaloisKeySet       = ckks.GaloisKeySet
	KeyGenerator       = ckks.KeyGenerator
)

// Client-side primitives.
type (
	Encoder   = ckks.Encoder
	Encryptor = ckks.Encryptor
	Decryptor = ckks.Decryptor
)

// The paper's Table 2 parameter sets.
var (
	SetA = ckks.SetA
	SetB = ckks.SetB
	SetC = ckks.SetC
	// StandardSets lists them in order.
	StandardSets = ckks.StandardSets
)

// NewParams realizes a ParamSpec (searches NTT-friendly primes, builds
// ring contexts).
func NewParams(spec ParamSpec) (*Params, error) { return ckks.NewParams(spec) }

// MustParams is NewParams panicking on error, for tests and examples.
func MustParams(spec ParamSpec) *Params { return ckks.MustParams(spec) }

// ParamsFromRaw builds parameters from explicit primes, as a party
// receiving serialized parameters does.
func ParamsFromRaw(logN int, q []uint64, special uint64, logScale int) (*Params, error) {
	return ckks.ParamsFromRaw(logN, q, special, logScale)
}

// NewKeyGenerator creates a deterministic key generator (the seed fixes
// all randomness).
func NewKeyGenerator(params *Params, seed int64) *KeyGenerator {
	return ckks.NewKeyGenerator(params, seed)
}

// NewEncoder builds the canonical-embedding encoder.
func NewEncoder(params *Params) *Encoder { return ckks.NewEncoder(params) }

// NewEncryptor builds a public-key encryptor.
func NewEncryptor(params *Params, pk *PublicKey, seed int64) *Encryptor {
	return ckks.NewEncryptor(params, pk, seed)
}

// NewSymmetricEncryptor builds a secret-key encryptor.
func NewSymmetricEncryptor(params *Params, sk *SecretKey, seed int64) *Encryptor {
	return ckks.NewSymmetricEncryptor(params, sk, seed)
}

// NewDecryptor builds a decryptor.
func NewDecryptor(params *Params, sk *SecretKey) *Decryptor {
	return ckks.NewDecryptor(params, sk)
}

// NewCiphertext allocates a degree-`degree` ciphertext at `level` with
// the given scale, backed at the parameter set's full level so it can be
// reused as an *Into output across levels.
func NewCiphertext(params *Params, degree, level int, scale float64) (*Ciphertext, error) {
	return ckks.NewCiphertext(params, degree, level, scale)
}

// CopyOf returns a deep copy of a ciphertext.
func CopyOf(ct *Ciphertext) *Ciphertext { return ckks.CopyOf(ct) }

// Serialization: the wire format a client and a HEAX-accelerated server
// exchange. Readers validate structure and residue ranges; corrupted
// blobs fail with an error wrapping ErrCorrupt.

func WriteParams(w io.Writer, p *Params) error          { return ckks.WriteParams(w, p) }
func ReadParams(r io.Reader) (*Params, error)           { return ckks.ReadParams(r) }
func WriteCiphertext(w io.Writer, ct *Ciphertext) error { return ckks.WriteCiphertext(w, ct) }
func ReadCiphertext(r io.Reader, params *Params) (*Ciphertext, error) {
	return ckks.ReadCiphertext(r, params)
}
func WriteSecretKey(w io.Writer, sk *SecretKey) error { return ckks.WriteSecretKey(w, sk) }
func ReadSecretKey(r io.Reader, params *Params) (*SecretKey, error) {
	return ckks.ReadSecretKey(r, params)
}
func WritePublicKey(w io.Writer, pk *PublicKey) error { return ckks.WritePublicKey(w, pk) }
func ReadPublicKey(r io.Reader, params *Params) (*PublicKey, error) {
	return ckks.ReadPublicKey(r, params)
}
func WriteRelinearizationKey(w io.Writer, rlk *RelinearizationKey) error {
	return ckks.WriteRelinearizationKey(w, rlk)
}
func ReadRelinearizationKey(r io.Reader, params *Params) (*RelinearizationKey, error) {
	return ckks.ReadRelinearizationKey(r, params)
}
func WriteGaloisKey(w io.Writer, gk *GaloisKey) error { return ckks.WriteGaloisKey(w, gk) }
func ReadGaloisKey(r io.Reader, params *Params) (*GaloisKey, error) {
	return ckks.ReadGaloisKey(r, params)
}

// WriteEvaluationKeySet serializes a complete evaluation key set
// (relinearization plus Galois keys, either may be nil) as one framed,
// length-checked object — the tenant-registration upload of the serving
// wire format.
func WriteEvaluationKeySet(w io.Writer, evk *EvaluationKeySet) error {
	if evk == nil {
		evk = &EvaluationKeySet{}
	}
	return ckks.WriteEvaluationKeys(w, evk.Relin, evk.Galois)
}

// EvaluationKeySetSize returns the exact number of bytes
// WriteEvaluationKeySet produces for evk, computed from the key shapes
// without encoding them, or the error it would fail with for a set the
// wire format cannot carry — what a framing layer needs to announce a
// key set's length before streaming it.
func EvaluationKeySetSize(evk *EvaluationKeySet) (int, error) {
	if evk == nil {
		evk = &EvaluationKeySet{}
	}
	return ckks.EvaluationKeysSize(evk.Relin, evk.Galois)
}

// ReadEvaluationKeySet reconstructs a key set written by
// WriteEvaluationKeySet; corrupted or truncated blobs fail with
// ErrCorrupt.
func ReadEvaluationKeySet(r io.Reader, params *Params) (*EvaluationKeySet, error) {
	rlk, gks, err := ckks.ReadEvaluationKeys(r, params)
	if err != nil {
		return nil, err
	}
	return &EvaluationKeySet{Relin: rlk, Galois: gks}, nil
}

// WriteCiphertextBatch serializes a named ciphertext set — one plan
// input (or output) batch — as a single framed object with entries in
// sorted name order.
func WriteCiphertextBatch(w io.Writer, batch map[string]*Ciphertext) error {
	return ckks.WriteCiphertextBatch(w, batch)
}

// CiphertextBatchSize returns the exact number of bytes
// WriteCiphertextBatch produces for batch, or the error it would fail
// with for a batch the wire format cannot carry (too many entries, an
// empty or over-long name) — what a framing layer needs to announce a
// batch's length before streaming it.
func CiphertextBatchSize(batch map[string]*Ciphertext) (int, error) {
	return ckks.CiphertextBatchSize(batch)
}

// ReadCiphertextBatch reconstructs a batch written by
// WriteCiphertextBatch; corrupted or truncated blobs fail with
// ErrCorrupt.
func ReadCiphertextBatch(r io.Reader, params *Params) (map[string]*Ciphertext, error) {
	return ckks.ReadCiphertextBatch(r, params)
}
