// Package checkpoint provides crash-safe persistence for training state:
// an atomic write-file primitive (temp file + fsync + rename, so a crash
// mid-write can never leave a torn file at the destination path) and a
// versioned store of CRC-checked snapshots with automatic fallback — if the
// newest checkpoint is truncated or corrupted, loading silently falls back
// to the most recent intact one.
//
// # File format
//
// Each checkpoint file is a one-line JSON header followed by the raw
// payload bytes:
//
//	{"magic":"miras-checkpoint","version":1,"seq":7,"size":1234,"crc32":3735928559}
//	<payload bytes…>
//
// The header pins the format version, the payload length, and the IEEE
// CRC-32 of the payload. A loader rejects any file whose header does not
// parse, whose payload length differs from size, or whose CRC does not
// match — truncation, bit rot, and partial writes all fail closed with an
// error, never a panic or a silently wrong payload.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// Magic identifies checkpoint files; Version is the current format.
const (
	Magic   = "miras-checkpoint"
	Version = 1
)

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// checkpoint files at all (as opposed to only corrupt ones).
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// WriteFileAtomic writes data to path atomically: the bytes land in a
// temporary file in the same directory, are fsynced, and are renamed over
// path. Readers see either the old content or the new content, never a
// torn mixture — the property every JSON persistence path in this repo
// relies on (a crash mid-os.WriteFile leaves a half-written file).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure, remove the temp file; the destination is untouched.
	fail := func(op string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %s %s: %w", op, tmpName, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename to %s: %w", path, err)
	}
	// Best-effort directory sync so the rename itself survives power loss.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// header is the first line of every checkpoint file.
type header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Seq     int    `json:"seq"`
	Size    int    `json:"size"`
	CRC32   uint32 `json:"crc32"`
}

// keep is how many checkpoints a Store retains: LoadLatest needs only the
// newest intact one, and the older two are its fallbacks.
const keep = 3

// Store manages a directory of versioned checkpoints. Sequence numbers are
// caller-assigned and monotonically increasing (the training loop uses the
// outer-iteration index); Save prunes old files beyond the newest keep.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// path returns the file name for sequence seq.
func (s *Store) path(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.json", seq))
}

// Save marshals payload as JSON and writes checkpoint seq atomically, then
// prunes snapshots older than the newest keep.
func (s *Store) Save(seq int, payload any) error {
	if seq < 0 {
		return fmt.Errorf("checkpoint: negative sequence %d", seq)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	h := header{
		Magic:   Magic,
		Version: Version,
		Seq:     seq,
		Size:    len(body),
		CRC32:   crc32.ChecksumIEEE(body),
	}
	head, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal header: %w", err)
	}
	data := make([]byte, 0, len(head)+1+len(body))
	data = append(data, head...)
	data = append(data, '\n')
	data = append(data, body...)
	if err := WriteFileAtomic(s.path(seq), data, 0o644); err != nil {
		return err
	}
	s.prune()
	return nil
}

// seqs returns all checkpoint sequence numbers present, ascending.
func (s *Store) seqs() []int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		var seq int
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%08d.json", &seq); err == nil && n == 1 {
			out = append(out, seq)
		}
	}
	sort.Ints(out)
	return out
}

// prune removes all but the newest keep checkpoints.
func (s *Store) prune() {
	seqs := s.seqs()
	for len(seqs) > keep {
		os.Remove(s.path(seqs[0]))
		seqs = seqs[1:]
	}
}

// LoadLatest finds the newest intact checkpoint, unmarshals its payload
// into payload, and returns its sequence number. Corrupt or truncated
// files are skipped (newest first) so a crash during the last Save falls
// back to the previous snapshot. It returns ErrNoCheckpoint when the
// directory has no checkpoint files, or an error describing the corruption
// when files exist but none is loadable. payload is assigned only from
// the checkpoint returned.
func (s *Store) LoadLatest(payload any) (int, error) {
	dst := reflect.ValueOf(payload)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return 0, fmt.Errorf("checkpoint: LoadLatest needs a non-nil pointer, got %T", payload)
	}
	seqs := s.seqs()
	if len(seqs) == 0 {
		return 0, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		// Each candidate decodes into a fresh value: json.Unmarshal does
		// not zero its target, so one that passes its CRC but fails to
		// decode would leave the fields it had read in the older
		// checkpoint returned after it.
		fresh := reflect.New(dst.Elem().Type())
		if err := loadFile(s.path(seq), seq, fresh.Interface()); err != nil {
			lastErr = err
			continue
		}
		dst.Elem().Set(fresh.Elem())
		return seq, nil
	}
	return 0, fmt.Errorf("checkpoint: all %d checkpoints in %s are corrupt, last error: %w",
		len(seqs), s.dir, lastErr)
}

// loadFile reads and verifies one checkpoint file.
func loadFile(path string, wantSeq int, payload any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("checkpoint: %s vanished: %w", path, err)
		}
		return fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return fmt.Errorf("checkpoint: %s: no header line (truncated?)", path)
	}
	var h header
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return fmt.Errorf("checkpoint: %s: bad header: %w", path, err)
	}
	if h.Magic != Magic {
		return fmt.Errorf("checkpoint: %s: magic %q != %q", path, h.Magic, Magic)
	}
	if h.Version != Version {
		return fmt.Errorf("checkpoint: %s: unsupported version %d", path, h.Version)
	}
	if h.Seq != wantSeq {
		return fmt.Errorf("checkpoint: %s: header seq %d != filename seq %d", path, h.Seq, wantSeq)
	}
	body := data[nl+1:]
	if len(body) != h.Size {
		return fmt.Errorf("checkpoint: %s: payload %d bytes, header says %d (truncated?)",
			path, len(body), h.Size)
	}
	if crc := crc32.ChecksumIEEE(body); crc != h.CRC32 {
		return fmt.Errorf("checkpoint: %s: CRC mismatch %#08x != %#08x (corrupted)",
			path, crc, h.CRC32)
	}
	if err := json.Unmarshal(body, payload); err != nil {
		return fmt.Errorf("checkpoint: %s: decode payload: %w", path, err)
	}
	return nil
}
