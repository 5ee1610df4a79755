package ckks

import (
	"bytes"
	"testing"
)

// Codec micro-benchmarks for paired parent/change runs: build each side
// with `go test -c -o <file> ./internal/ckks` and alternate
// `<file> -test.run '^$' -test.bench Serial_ -test.benchtime 200x`.
// They use only the exported codec entry points, a counting sink and a
// bytes.Reader, so the same file compiles against either side.

type countingSink struct{ n int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

var serialBenchSink any

func benchSerial(b *testing.B, run func(b *testing.B, ct *Ciphertext, batch map[string]*Ciphertext, params *Params)) {
	for _, spec := range []ParamSpec{SetA, SetC} {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			kit := newTestKit(b, spec)
			batch := make(map[string]*Ciphertext, 2)
			for _, name := range []string{"x", "y"} {
				pt, err := kit.enc.Encode([]complex128{1, 2, 3}, kit.params.MaxLevel(), kit.params.DefaultScale())
				if err != nil {
					b.Fatal(err)
				}
				if batch[name], err = kit.encPk.Encrypt(pt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			run(b, batch["x"], batch, kit.params)
		})
	}
}

func BenchmarkSerial_WriteCiphertext(b *testing.B) {
	benchSerial(b, func(b *testing.B, ct *Ciphertext, _ map[string]*Ciphertext, _ *Params) {
		var sink countingSink
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteCiphertext(&sink, ct); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(sink.n / int64(b.N))
	})
}

func BenchmarkSerial_ReadCiphertext(b *testing.B) {
	benchSerial(b, func(b *testing.B, ct *Ciphertext, _ map[string]*Ciphertext, params *Params) {
		var blob bytes.Buffer
		if err := WriteCiphertext(&blob, ct); err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(blob.Bytes())
		b.SetBytes(int64(blob.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(blob.Bytes())
			got, err := ReadCiphertext(rd, params)
			if err != nil {
				b.Fatal(err)
			}
			serialBenchSink = got
		}
	})
}

func BenchmarkSerial_WriteBatch(b *testing.B) {
	benchSerial(b, func(b *testing.B, _ *Ciphertext, batch map[string]*Ciphertext, _ *Params) {
		var sink countingSink
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteCiphertextBatch(&sink, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(sink.n / int64(b.N))
	})
}

func BenchmarkSerial_ReadBatch(b *testing.B) {
	benchSerial(b, func(b *testing.B, _ *Ciphertext, batch map[string]*Ciphertext, params *Params) {
		var blob bytes.Buffer
		if err := WriteCiphertextBatch(&blob, batch); err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(blob.Bytes())
		b.SetBytes(int64(blob.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(blob.Bytes())
			got, err := ReadCiphertextBatch(rd, params)
			if err != nil {
				b.Fatal(err)
			}
			serialBenchSink = got
		}
	})
}
