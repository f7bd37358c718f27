// Memory-mapped FBMX open path. Gated to unix-like platforms with a
// little-endian word order: the mapping reinterprets the file's
// little-endian float64 payload in place, so a big-endian host (or a
// platform without syscall.Mmap) takes the decode-into-heap path in
// mmap_portable.go instead.

//go:build (linux || darwin || freebsd || netbsd || openbsd || dragonfly) && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mips64le || mipsle)

package store

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// OpenFBMX opens the FBMX collection at path as a read-only file
// mapping and returns it with the labels stored beside its rows. The
// header, the labels section and the payload are all checked against
// their checksums before it returns, so the open walks every payload
// page once. All format failures wrap ErrCorrupt; a missing file
// satisfies errors.Is(err, os.ErrNotExist).
func OpenFBMX(path string) (*Matrix, Labels, error) {
	//fbvet:ok mmap requires a real *os.File descriptor; read-only open outside the faultfs crash schedules
	f, err := os.Open(path)
	if err != nil {
		return nil, Labels{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, Labels{}, err
	}
	if info.Size() < fbmxHeaderPage {
		return nil, Labels{}, fmt.Errorf("%w: FBMX file %s is %d bytes, want at least the %d-byte header page", ErrCorrupt, path, info.Size(), fbmxHeaderPage)
	}
	page := make([]byte, fbmxHeaderPage)
	if _, err := f.ReadAt(page, 0); err != nil {
		return nil, Labels{}, fmt.Errorf("store: reading FBMX header of %s: %w", path, err)
	}
	h, err := parseFBMXHeader(page, info.Size())
	if err != nil {
		return nil, Labels{}, fmt.Errorf("%s: %w", path, err)
	}
	mapped, err := syscall.Mmap(int(f.Fd()), 0, int(info.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, Labels{}, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	payload := mapped[fbmxHeaderPage:h.labelsOff]
	labels, err := h.labels(mapped[h.labelsOff:])
	if err == nil {
		err = verifyFBMXPayload(payload, h.dataCRC)
	}
	if err != nil {
		_ = syscall.Munmap(mapped)
		return nil, Labels{}, fmt.Errorf("%s: %w", path, err)
	}
	// The payload begins on a page boundary of a page-aligned mapping,
	// so the float64 view is 8-byte aligned by construction.
	data := unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), h.n*h.dim)
	return &Matrix{data: data, n: int(h.n), dim: int(h.dim), mapped: mapped}, labels, nil
}

func munmap(b []byte) error { return syscall.Munmap(b) }
