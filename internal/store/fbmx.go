package store

// FBMX is the on-disk form of a served collection: a page-aligned,
// CRC-checked row-major float64 matrix followed by the labels the serving
// layer needs beside the rows. It is written once and opened read-only
// through OpenFBMX, which maps the payload straight into the scan
// kernels' address space (no heap copy of the collection) where the
// platform allows.
//
// Format (little-endian; DESIGN.md "FBMX file format" has the reasons):
//
//	header page, 4096 bytes: magic "FBMX", version uint32 (2), n and dim
//	  uint64, dataCRC and labelsCRC uint32, labelsOff, labelsLen and hash
//	  (see Labels) uint64, specLen uint32, spec (provenance), hdrCRC
//	  uint32 over every header byte before it, zero padding
//	payload at 4096, page-aligned for the mapping: n*dim float64, row-major
//	labels at labelsOff = 4096 + 8·n·dim, ending the file: nStrings
//	  uint32, nStrings cumulative end offsets (uint32) into the distinct
//	  strings' concatenated bytes, which follow; nQuery uint32 (≤ n);
//	  then string ids (uint32): nQuery query categories, n categories
//	  and n themes in row order
//
// Files are written atomically (tmp + fsync + rename + directory fsync,
// like the tree log's commits), so a crash leaves either no file or a
// complete one. All parse failures wrap ErrCorrupt.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"

	"repro/internal/persist"
)

var fbmxMagic = [4]byte{'F', 'B', 'M', 'X'}

// FBMXVersion is the current collection file format version. Version 1
// files (no labels, no provenance) are refused.
const FBMXVersion = 2

// fbmxHeaderPage is the page-aligned size of the header block; the
// payload begins at this offset.
const fbmxHeaderPage = 4096

// fbmxFixed is the length of the header fields before spec; fbmxMaxSpec
// bounds spec so the header, its checksum included, fits its page.
const (
	fbmxFixed   = 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 4
	fbmxMaxSpec = fbmxHeaderPage - fbmxFixed - 4
)

// maxFBMXSide bounds n and dim read from untrusted files so their
// product cannot overflow and a corrupt header cannot trigger an
// enormous allocation beyond the input's own size.
const maxFBMXSide = 1 << 31

// fbmxChunk bounds the staging buffer the writer streams rows through,
// so a write costs one syscall per MiB rather than one per row.
const fbmxChunk = 1 << 20

// Labels is what a served collection carries beside its rows. Hash is
// the FNV-64a over every row's float64 bits (little-endian), each row
// followed by "category\x00theme\x00": the writer computes it, the open
// paths return the stored value.
type Labels struct {
	Spec      string // provenance, e.g. "synth:scale=1,seed=1"
	Hash      uint64
	QueryCats []string
	Category  []string // one per row
	Theme     []string // one per row
}

// fbmxHeader is the decoded header page.
type fbmxHeader struct {
	n, dim               uint64
	dataCRC, labelsCRC   uint32
	labelsOff, labelsLen uint64
	hash                 uint64
	spec                 string
}

// put encodes h into a header page and seals it with its checksum.
func (h *fbmxHeader) put(page []byte) {
	le := binary.LittleEndian
	copy(page[0:4], fbmxMagic[:])
	le.PutUint32(page[4:8], FBMXVersion)
	le.PutUint64(page[8:16], h.n)
	le.PutUint64(page[16:24], h.dim)
	le.PutUint32(page[24:28], h.dataCRC)
	le.PutUint32(page[28:32], h.labelsCRC)
	le.PutUint64(page[32:40], h.labelsOff)
	le.PutUint64(page[40:48], h.labelsLen)
	le.PutUint64(page[48:56], h.hash)
	le.PutUint32(page[56:60], uint32(len(h.spec)))
	end := fbmxFixed + copy(page[fbmxFixed:], h.spec)
	le.PutUint32(page[end:], crc32.ChecksumIEEE(page[:end]))
}

// WriteFBMX writes the matrix's rows and their labels to path as an
// FBMX collection file, atomically: a temporary file is written,
// fsynced, renamed into place, and the directory entry made durable.
func WriteFBMX(path string, m *Matrix, l Labels) error {
	return WriteFBMXFS(nil, path, m, l)
}

// WriteFBMXFS is WriteFBMX with every filesystem operation routed
// through fs (nil means the real filesystem) — the fault-injection seam
// for collection writes. l.Hash is ignored: the writer computes it.
func WriteFBMXFS(fsys persist.FS, path string, m *Matrix, l Labels) error {
	if m == nil {
		return fmt.Errorf("store: cannot write empty collection to %s", path)
	}
	n, dim := m.Len(), m.Dim()
	if len(l.Category) != n || len(l.Theme) != n || len(l.QueryCats) > n || len(l.Spec) > fbmxMaxSpec {
		return fmt.Errorf("store: labels do not fit the %d rows written to %s (%d categories, %d themes, %d query categories, %d-byte spec)",
			n, path, len(l.Category), len(l.Theme), len(l.QueryCats), len(l.Spec))
	}
	fsys = persist.OrOS(fsys)
	tmp := path + ".tmp"
	f, err := persist.CreateFile(fsys, tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	// Single pass over the rows: reserve the header page, stream the
	// payload through one reused chunk buffer while accumulating its
	// checksum and the collection hash, append the labels section, then
	// drop the finalized header in at offset 0. The file only becomes
	// visible at the rename below, so the temporarily zeroed header is
	// never observable.
	page := make([]byte, fbmxHeaderPage)
	if _, err := f.Write(page); err != nil {
		return cleanup(err)
	}
	rowBytes := 8 * dim
	buf := make([]byte, min(n, max(1, fbmxChunk/rowBytes))*rowBytes)
	crc, hash := crc32.NewIEEE(), fnv.New64a()
	var rec []byte // one row's hashed bytes
	for lo := 0; lo < n; {
		hi := min(n, lo+len(buf)/rowBytes)
		chunk := buf[:(hi-lo)*rowBytes]
		for i := lo; i < hi; i++ {
			row := chunk[(i-lo)*rowBytes : (i-lo+1)*rowBytes]
			encodeRow(row, m.Row(i))
			rec = append(append(append(append(append(rec[:0], row...), l.Category[i]...), 0), l.Theme[i]...), 0)
			hash.Write(rec)
		}
		crc.Write(chunk)
		if _, err := f.Write(chunk); err != nil {
			return cleanup(err)
		}
		lo = hi
	}
	labels := encodeLabels(l)
	if _, err := f.Write(labels); err != nil {
		return cleanup(err)
	}
	h := fbmxHeader{
		n: uint64(n), dim: uint64(dim),
		dataCRC: crc.Sum32(), labelsCRC: crc32.ChecksumIEEE(labels),
		labelsOff: fbmxHeaderPage + 8*uint64(n)*uint64(dim), labelsLen: uint64(len(labels)),
		hash: hash.Sum64(), spec: l.Spec,
	}
	h.put(page)
	if _, err := f.WriteAt(page, 0); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

func encodeRow(dst []byte, row []float64) {
	for j, x := range row {
		binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(x))
	}
}

// encodeLabels lays out the labels section: every distinct string once,
// in order of first use, then each label as an id into that table.
func encodeLabels(l Labels) []byte {
	index := make(map[string]uint32)
	var table []string
	var ids []uint32
	for _, s := range slices.Concat(l.QueryCats, l.Category, l.Theme) {
		i, ok := index[s]
		if !ok {
			i = uint32(len(table))
			index[s] = i
			table = append(table, s)
		}
		ids = append(ids, i)
	}
	le := binary.LittleEndian
	out := le.AppendUint32(nil, uint32(len(table)))
	var blob []byte
	for _, s := range table {
		blob = append(blob, s...)
		out = le.AppendUint32(out, uint32(len(blob)))
	}
	out = le.AppendUint32(append(out, blob...), uint32(len(l.QueryCats)))
	for _, id := range ids {
		out = le.AppendUint32(out, id)
	}
	return out
}

// labels checks a labels section against the header's checksum and
// decodes it, provenance included. Every string is cut from one copy of
// the table's bytes, so nothing aliases the input (an mmap that Close
// unmaps), and no slice is made larger than the input: there are at
// most n query categories, and every row already costs the input more
// bytes than its label's string header.
func (h *fbmxHeader) labels(sec []byte) (Labels, error) {
	if got := crc32.ChecksumIEEE(sec); got != h.labelsCRC {
		return Labels{}, fmt.Errorf("%w: FBMX labels checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, h.labelsCRC, got)
	}
	le := binary.LittleEndian
	bad := func(what string) (Labels, error) {
		return Labels{}, fmt.Errorf("%w: FBMX labels section: %s", ErrCorrupt, what)
	}
	if len(sec) < 4 || uint64(le.Uint32(sec)) > uint64(len(sec)-4)/4 {
		return bad("string table overruns the section")
	}
	count := uint64(le.Uint32(sec))
	ends, rest := sec[4:4+4*count], sec[4+4*count:]
	start := func(id uint64) uint32 { // where string id begins; start(count) ends the table
		if id == 0 {
			return 0
		}
		return le.Uint32(ends[4*(id-1):])
	}
	for id := uint64(1); id <= count; id++ {
		if start(id) < start(id-1) {
			return bad("string table offsets decrease")
		}
	}
	blobLen := uint64(start(count))
	if blobLen+4 > uint64(len(rest)) {
		return bad("truncated inside the string table")
	}
	blob, nq, ids := string(rest[:blobLen]), uint64(le.Uint32(rest[blobLen:])), rest[blobLen+4:]
	if nq > h.n || uint64(len(ids)) != 4*(nq+2*h.n) {
		return bad(fmt.Sprintf("%d bytes of ids, want %d query categories and %d rows", len(ids), nq, h.n))
	}
	strs := func(k uint64) []string {
		out := make([]string, k)
		for i := range out {
			id := uint64(le.Uint32(ids[4*i:]))
			if id >= count {
				return nil
			}
			out[i] = blob[start(id):start(id+1)]
		}
		ids = ids[4*k:]
		return out
	}
	l := Labels{Spec: h.spec, Hash: h.hash, QueryCats: strs(nq), Category: strs(h.n), Theme: strs(h.n)}
	if l.QueryCats == nil || l.Category == nil || l.Theme == nil {
		return bad("label id outside the string table")
	}
	return l, nil
}

// parseFBMXHeader validates the header page (all fbmxHeaderPage bytes)
// of an FBMX image against size, the total file (or buffer) length. All
// failures wrap ErrCorrupt.
func parseFBMXHeader(page []byte, size int64) (fbmxHeader, error) {
	var h fbmxHeader
	le := binary.LittleEndian
	if [4]byte(page[0:4]) != fbmxMagic {
		return h, fmt.Errorf("%w: bad FBMX magic %q", ErrCorrupt, page[0:4])
	}
	if v := le.Uint32(page[4:8]); v != FBMXVersion {
		return h, fmt.Errorf("%w: unsupported FBMX version %d", ErrCorrupt, v)
	}
	specLen := uint64(le.Uint32(page[56:60]))
	if specLen > fbmxMaxSpec {
		return h, fmt.Errorf("%w: FBMX provenance of %d bytes overruns the header page", ErrCorrupt, specLen)
	}
	end := fbmxFixed + int(specLen)
	if want, got := le.Uint32(page[end:]), crc32.ChecksumIEEE(page[:end]); want != got {
		return h, fmt.Errorf("%w: FBMX header checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	h = fbmxHeader{
		n: le.Uint64(page[8:16]), dim: le.Uint64(page[16:24]),
		dataCRC: le.Uint32(page[24:28]), labelsCRC: le.Uint32(page[28:32]),
		labelsOff: le.Uint64(page[32:40]), labelsLen: le.Uint64(page[40:48]),
		hash: le.Uint64(page[48:56]), spec: string(page[fbmxFixed:end]),
	}
	if h.n == 0 || h.dim == 0 || h.n >= maxFBMXSide || h.dim >= maxFBMXSide {
		return h, fmt.Errorf("%w: implausible FBMX shape %dx%d", ErrCorrupt, h.n, h.dim)
	}
	// Compare element counts, not byte counts: n and dim are each
	// < 2^31, so n*dim fits a uint64 exactly, whereas multiplying the
	// product by 8 could wrap and let a crafted header with an
	// astronomically large shape masquerade as a tiny file.
	if size < fbmxHeaderPage || h.labelsLen > uint64(size-fbmxHeaderPage) || (uint64(size-fbmxHeaderPage)-h.labelsLen)%8 != 0 {
		return h, fmt.Errorf("%w: FBMX file is %d bytes, not a header page, a whole float64 payload and a %d-byte labels section", ErrCorrupt, size, h.labelsLen)
	}
	elems := (uint64(size-fbmxHeaderPage) - h.labelsLen) / 8
	if h.n*h.dim != elems {
		return h, fmt.Errorf("%w: FBMX file holds %d payload elements, want %d for a %dx%d collection", ErrCorrupt, elems, h.n*h.dim, h.n, h.dim)
	}
	if h.labelsOff != fbmxHeaderPage+8*elems {
		return h, fmt.Errorf("%w: FBMX labels section at offset %d, want %d", ErrCorrupt, h.labelsOff, fbmxHeaderPage+8*elems)
	}
	return h, nil
}

// verifyFBMXPayload checks the payload bytes against the header's
// checksum.
func verifyFBMXPayload(payload []byte, dataCRC uint32) error {
	if got := crc32.ChecksumIEEE(payload); got != dataCRC {
		return fmt.Errorf("%w: FBMX payload checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, dataCRC, got)
	}
	return nil
}

// DecodeFBMX parses a complete FBMX image from memory into a fresh
// heap Matrix and its labels, verifying every checksum. It is the
// portable OpenFBMX (used when mmap is unavailable) and the fuzzing
// target: any input either decodes fully or returns an error wrapping
// ErrCorrupt — never a panic, never an allocation beyond the input's
// own size.
func DecodeFBMX(data []byte) (*Matrix, Labels, error) {
	if len(data) < fbmxHeaderPage {
		return nil, Labels{}, fmt.Errorf("%w: FBMX image is %d bytes, want at least the %d-byte header page", ErrCorrupt, len(data), fbmxHeaderPage)
	}
	h, err := parseFBMXHeader(data[:fbmxHeaderPage], int64(len(data)))
	if err != nil {
		return nil, Labels{}, err
	}
	payload := data[fbmxHeaderPage:h.labelsOff]
	if err := verifyFBMXPayload(payload, h.dataCRC); err != nil {
		return nil, Labels{}, err
	}
	l, err := h.labels(data[h.labelsOff:])
	if err != nil {
		return nil, Labels{}, err
	}
	vals := make([]float64, h.n*h.dim)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return &Matrix{data: vals, n: int(h.n), dim: int(h.dim)}, l, nil
}
