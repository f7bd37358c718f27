// Portable FBMX open path for platforms without a little-endian mmap:
// the file is read and decoded into the heap. Semantics match the
// mapped path exactly (same validation, same sentinels, bitwise-equal
// rows); only residency differs.

//go:build !((linux || darwin || freebsd || netbsd || openbsd || dragonfly) && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mips64le || mipsle))

package store

import "os"

// OpenFBMX opens the FBMX collection at path by decoding it into a heap
// matrix (DecodeFBMX), every checksum verified, and returns it with the
// labels stored beside its rows.
func OpenFBMX(path string) (*Matrix, Labels, error) {
	//fbvet:ok portable open path of FBMX files; read-only, outside the faultfs crash schedules
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Labels{}, err
	}
	return DecodeFBMX(raw)
}

// munmap is never reached on this build (Matrix.mapped stays nil); it
// exists so matrix.go compiles identically everywhere.
func munmap([]byte) error { return nil }
