// Portable FBMX open path for platforms without a little-endian mmap:
// the file is read and decoded into the heap. Semantics match the
// mapped path exactly (same validation, same sentinels, bitwise-equal
// rows); only residency differs.

//go:build !((linux || darwin || freebsd || netbsd || openbsd || dragonfly) && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mips64le || mipsle))

package store

import (
	"encoding/binary"
	"math"
	"os"
)

// OpenMmap opens the FBMX collection at path by decoding it into the
// heap. Unlike the mapped path, the payload checksum is verified here
// eagerly — the bytes are all in hand anyway.
func OpenMmap(path string) (*MmapMatrix, error) {
	//fbvet:ok portable fallback of the mmap open path; read-only, outside the faultfs crash schedules
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, labels, err := DecodeFBMX(raw)
	if err != nil {
		return nil, err
	}
	dataCRC := binary.LittleEndian.Uint32(raw[24:28])
	return &MmapMatrix{data: m.data, n: m.n, dim: m.dim, path: path, dataCRC: dataCRC, labels: labels}, nil
}

// munmap is never reached on this build (MmapMatrix.mapped stays nil);
// it exists so mmap.go compiles identically everywhere.
func munmap([]byte) error { return nil }

// floatsAsBytes re-encodes the slab as the file's little-endian payload
// bytes, endianness-independently.
func floatsAsBytes(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}
