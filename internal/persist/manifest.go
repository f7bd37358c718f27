package persist

// Manifest for sharded module directories. A sharded bypass splits its
// durable state across per-shard subdirectories (shard-000/, shard-001/,
// ...), each holding an independent tree log; the manifest at the
// directory root pins the layout those pieces must be reassembled under. It is written once, before any shard directory is created, and
// rewritten never: a crash at any later point — mid-insert, mid-compaction
// of shard k, mid-creation of the shard directories themselves — recovers
// by reading the manifest and opening every named shard (missing shard
// directories are simply empty shards). Opening with a different shard
// count or geometry is refused, so resharding is an explicit migration.
//
// Format (little-endian):
//
//	magic   [4]byte  "FBMN"
//	version uint32   currently 1
//	shards  uint32   partition count S
//	dim     uint32   query-domain dimensionality D
//	oqpDim  uint32   stored-vector dimensionality N
//	crc32   uint32   IEEE checksum of everything before it

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

var manifestMagic = [4]byte{'F', 'B', 'M', 'N'}

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

const manifestSize = 4 + 4 + 4 + 4 + 4 + 4

// Manifest describes the fixed layout of a sharded module directory.
type Manifest struct {
	Shards int // partition count S
	Dim    int // query-domain dimensionality D
	OQPDim int // stored-vector dimensionality N
}

// SaveManifestFS writes the manifest to path atomically through fs (nil
// means OSFS): a temporary file is written, fsynced, renamed into place,
// and the directory entry made durable — a crash leaves either no
// manifest or a complete one, never a torn header.
func SaveManifestFS(fsys FS, path string, m Manifest) error {
	if m.Shards <= 0 || m.Dim <= 0 || m.OQPDim <= 0 {
		return fmt.Errorf("persist: invalid manifest %+v", m)
	}
	fsys = OrOS(fsys)
	var buf [manifestSize]byte
	copy(buf[0:4], manifestMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], ManifestVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(m.Shards))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(m.Dim))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(m.OQPDim))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(buf[:20]))

	tmp := path + ".tmp"
	f, err := CreateFile(fsys, tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf[:]); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
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

// LoadManifestFS reads and validates the manifest at path through fs
// (nil means OSFS). A missing file is reported with an error satisfying
// errors.Is(err, os.ErrNotExist); any malformed content wraps ErrCorrupt.
func LoadManifestFS(fsys FS, path string) (Manifest, error) {
	data, err := OrOS(fsys).ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	return DecodeManifest(data)
}

// DecodeManifest validates and decodes a manifest image from memory —
// the byte-level parser LoadManifestFS wraps, exposed so untrusted input
// (and the fuzzer) can exercise it without touching the filesystem. Any
// malformed content returns an error wrapping ErrCorrupt; it never
// panics.
func DecodeManifest(data []byte) (Manifest, error) {
	if len(data) != manifestSize {
		return Manifest{}, fmt.Errorf("%w: manifest is %d bytes, want %d", ErrCorrupt, len(data), manifestSize)
	}
	if [4]byte(data[0:4]) != manifestMagic {
		return Manifest{}, fmt.Errorf("%w: bad manifest magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ManifestVersion {
		return Manifest{}, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, v)
	}
	if want, got := binary.LittleEndian.Uint32(data[20:24]), crc32.ChecksumIEEE(data[:20]); want != got {
		return Manifest{}, fmt.Errorf("%w: manifest checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	m := Manifest{
		Shards: int(binary.LittleEndian.Uint32(data[8:12])),
		Dim:    int(binary.LittleEndian.Uint32(data[12:16])),
		OQPDim: int(binary.LittleEndian.Uint32(data[16:20])),
	}
	if m.Shards <= 0 || m.Shards > maxSaneCount || m.Dim <= 0 || m.Dim > maxSaneCount || m.OQPDim <= 0 || m.OQPDim > maxSaneCount {
		return Manifest{}, fmt.Errorf("%w: implausible manifest %+v", ErrCorrupt, m)
	}
	return m, nil
}
