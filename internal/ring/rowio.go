package ring

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// Residue rows cross the wire as their little-endian byte image: word i
// of a row is bytes [8i, 8i+8). On a little-endian host that image is
// the row's own memory, so WriteRow and ReadRow hand the writer and the
// reader a byte view of it and the row is copied once, by the transport.
// Other hosts (and the tests, as the oracle) convert word by word
// through a fixed scratch block.

// hostLittleEndian reports whether a uint64's memory is its wire image.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rowChunk is the portable path's scratch, in bytes.
const rowChunk = 512

// rowBytes views row's memory as bytes. The view aliases row: it is
// only ever handed to one Read or Write call and never retained.
func rowBytes(row []uint64) []byte {
	if len(row) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), 8*len(row))
}

// WriteRow writes row to w as little-endian 64-bit words.
//
//heax:noalloc
func WriteRow(w io.Writer, row []uint64) error {
	if !hostLittleEndian {
		return writeRowPortable(w, row)
	}
	_, err := w.Write(rowBytes(row))
	return err
}

// ReadRow fills row from r's little-endian 64-bit words. A short stream
// fails with the reader's error (io.ErrUnexpectedEOF once any byte of
// the row has arrived); row's contents are then unspecified.
//
//heax:noalloc
func ReadRow(r io.Reader, row []uint64) error {
	if !hostLittleEndian {
		return readRowPortable(r, row)
	}
	_, err := io.ReadFull(r, rowBytes(row))
	return err
}

func writeRowPortable(w io.Writer, row []uint64) error {
	var buf [rowChunk]byte
	for len(row) > 0 {
		n := min(len(row), rowChunk/8)
		for i, v := range row[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		row = row[n:]
	}
	return nil
}

func readRowPortable(r io.Reader, row []uint64) error {
	var buf [rowChunk]byte
	for len(row) > 0 {
		n := min(len(row), rowChunk/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		for i := range row[:n] {
			row[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		row = row[n:]
	}
	return nil
}
