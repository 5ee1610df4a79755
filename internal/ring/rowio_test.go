package ring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestRowIOMatchesPortableOracle: the byte-view fast path and the
// portable word loop produce and accept the same little-endian image,
// in both directions, at sizes around the portable path's chunk edge.
func TestRowIOMatchesPortableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, rowChunk/8 - 1, rowChunk / 8, rowChunk/8 + 1, 4096} {
		row := make([]uint64, n)
		for i := range row {
			row[i] = rng.Uint64()
		}
		want := make([]byte, 0, 8*n)
		for _, v := range row {
			want = binary.LittleEndian.AppendUint64(want, v)
		}
		var fast, portable bytes.Buffer
		if err := WriteRow(&fast, row); err != nil {
			t.Fatal(err)
		}
		if err := writeRowPortable(&portable, row); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast.Bytes(), want) || !bytes.Equal(portable.Bytes(), want) {
			t.Fatalf("n=%d: written image differs from encoding/binary's", n)
		}
		gotFast, gotPortable := make([]uint64, n), make([]uint64, n)
		if err := ReadRow(bytes.NewReader(want), gotFast); err != nil {
			t.Fatal(err)
		}
		if err := readRowPortable(bytes.NewReader(want), gotPortable); err != nil {
			t.Fatal(err)
		}
		for i := range row {
			if gotFast[i] != row[i] || gotPortable[i] != row[i] {
				t.Fatalf("n=%d: word %d read back as %#x / %#x, want %#x", n, i, gotFast[i], gotPortable[i], row[i])
			}
		}
	}
}

// TestRowIOShortStream: both paths report a stream that ends inside a
// row, and one that ends before it.
func TestRowIOShortStream(t *testing.T) {
	image := make([]byte, 8*100)
	for name, read := range map[string]func(io.Reader, []uint64) error{"fast": ReadRow, "portable": readRowPortable} {
		if err := read(bytes.NewReader(image[:8*100-3]), make([]uint64, 100)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: row cut mid-word: got %v, want io.ErrUnexpectedEOF", name, err)
		}
		if err := read(bytes.NewReader(nil), make([]uint64, 100)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: empty stream: got %v, want io.EOF", name, err)
		}
	}
}

// TestRowIOAllocations: moving a row allocates nothing.
func TestRowIOAllocations(t *testing.T) {
	row := make([]uint64, 4096)
	image := make([]byte, 8*len(row))
	rd := bytes.NewReader(image)
	allocs := testing.AllocsPerRun(20, func() {
		if err := WriteRow(io.Discard, row); err != nil {
			t.Fatal(err)
		}
		rd.Reset(image)
		if err := ReadRow(rd, row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteRow+ReadRow: %.1f allocs/op, want 0", allocs)
	}
}
