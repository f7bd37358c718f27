// Memory-mapped FBMX open path. Gated to unix-like platforms with a
// little-endian word order: the mapping reinterprets the file's
// little-endian float64 payload in place, so a big-endian host (or a
// platform without syscall.Mmap) takes the decode-into-heap fallback in
// mmap_portable.go instead.

//go:build (linux || darwin || freebsd || netbsd || openbsd || dragonfly) && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mips64le || mipsle)

package store

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// OpenMmap opens the FBMX collection at path as a read-only file
// mapping. The header and the labels section are validated and decoded
// eagerly (shape, checksums, exact file size); the payload checksum is
// deferred to Verify so the open itself touches no payload pages. All
// format failures wrap ErrCorrupt; a missing file satisfies
// errors.Is(err, os.ErrNotExist).
func OpenMmap(path string) (*MmapMatrix, error) {
	//fbvet:ok mmap requires a real *os.File descriptor; read-only open outside the faultfs crash schedules
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() < fbmxHeaderPage {
		return nil, fmt.Errorf("%w: FBMX file %s is %d bytes, want at least the %d-byte header page", ErrCorrupt, path, info.Size(), fbmxHeaderPage)
	}
	page := make([]byte, fbmxHeaderPage)
	if _, err := f.ReadAt(page, 0); err != nil {
		return nil, fmt.Errorf("store: reading FBMX header of %s: %w", path, err)
	}
	h, err := parseFBMXHeader(page, info.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	mapped, err := syscall.Mmap(int(f.Fd()), 0, int(info.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	labels, err := h.labels(mapped[h.labelsOff:])
	if err != nil {
		_ = syscall.Munmap(mapped)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	payload := mapped[fbmxHeaderPage:h.labelsOff]
	// The payload begins on a page boundary of a page-aligned mapping,
	// so the float64 view is 8-byte aligned by construction.
	data := unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), h.n*h.dim)
	return &MmapMatrix{data: data, n: int(h.n), dim: int(h.dim), path: path, dataCRC: h.dataCRC, labels: labels, mapped: mapped}, nil
}

func munmap(b []byte) error { return syscall.Munmap(b) }

// floatsAsBytes reinterprets the float64 slab as its underlying bytes —
// exactly the file's little-endian payload on the platforms this build
// tag admits.
func floatsAsBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}
