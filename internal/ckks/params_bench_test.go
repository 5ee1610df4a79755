package ckks

import "testing"

// BenchmarkNewParams prices building the Set-C parameters: the prime
// search, the RNS basis and the ring context. A process builds each
// prime's NTT tables once, so every iteration after the first finds them
// built (the second Params of a server and its in-process client); the
// allocations are what such a Params adds.
func BenchmarkNewParams(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewParams(SetC); err != nil {
			b.Fatal(err)
		}
	}
}
