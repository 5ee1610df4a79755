package ckks

import (
	"math/rand"
	"testing"
)

// BenchmarkEncrypt prices one Set-C encryption of a top-level (L7)
// plaintext: public-key (the client's path: a ternary and two errors over
// the nine QP rows, their transforms, u·pk and the floor by P) and
// symmetric (a uniform and an error over the eight Q rows).
func BenchmarkEncrypt(b *testing.B) {
	params, err := NewParams(SetC)
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	pt, err := NewEncoder(params).Encode(randomComplex(rand.New(rand.NewSource(1)), params.Slots(), 1), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		enc  *Encryptor
	}{
		{"SetC-L7/public-key", NewEncryptor(params, pk, 2)},
		{"SetC-L7/symmetric", NewSymmetricEncryptor(params, sk, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.enc.Encrypt(pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
