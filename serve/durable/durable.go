// Package durable persists heax-serve tenant state — registrations and
// uploaded evaluation-key blobs — across process crashes, so a restarted
// daemon resumes serving plans without clients re-uploading megabytes of
// keys. The store is crash-only by construction: there is no clean-exit
// path the recovery depends on, and a kill -9 at any instant loses at
// most the last unsynced append.
//
// On disk the store is a snapshot plus an append-only write-ahead log:
//
//	state-dir/
//	  tenants.snap   full state at the last compaction (atomic rename)
//	  tenants.wal    register/unregister records appended since
//
// Every record is length-prefixed and checksummed:
//
//	record  := length(u32 LE) | crc32-IEEE(payload)(u32 LE) | payload
//	payload := op(u8) | nameLen(u32 LE) | name | keyLen(u32 LE) | keys
//
// (the key field is present only for OpRegister). Replay applies records
// in order; the first record that fails to decode — truncated header,
// length past the end of the file, checksum mismatch, malformed payload
// — marks the torn tail left by a crash mid-append: replay stops there,
// the log is truncated back to the last good record, and the boot
// proceeds. A damaged tail is recovery, never an error; only a corrupt
// snapshot (which is written atomically and therefore cannot be torn)
// fails Open.
//
// Compaction rewrites the snapshot (temp file + fsync + rename + parent
// directory fsync) and only then truncates the log, so a crash at any
// point between those steps leaves a recoverable combination.
//
// The fsync policy trades durability for append latency: FsyncAlways
// makes every acknowledged registration survive power loss at the cost
// of one fsync per append; FsyncNever leaves flushing to the OS, so a
// machine-level crash (not a mere process kill) may lose the last few
// records.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Record operations.
const (
	// OpRegister binds a tenant name to an evaluation-key blob.
	OpRegister byte = 1
	// OpUnregister frees a tenant name; its key blob is forgotten.
	OpUnregister byte = 2
)

// Typed decode failures. Both mark a record that cannot be applied;
// replay treats either as the torn tail of a crashed append.
var (
	// ErrCorrupt: a structurally complete record failed validation —
	// checksum mismatch, unknown op, or lengths that disagree.
	ErrCorrupt = errors.New("durable: corrupt record")
	// ErrTorn: the buffer ends before the record does — the truncated
	// tail a crash mid-append leaves behind.
	ErrTorn = errors.New("durable: torn record")
	// ErrInvalidRecord: EncodeRecord refused a record that would be
	// unreadable on replay (empty or oversized name, keys on an
	// unregister, unknown op). Nothing was written.
	ErrInvalidRecord = errors.New("durable: invalid record")
	// ErrClosed: the store has been closed; no further appends,
	// compactions, or reads are possible.
	ErrClosed = errors.New("durable: store closed")
)

// MaxNameLen bounds a tenant name in a record (matches the serving
// protocol's string cap).
const MaxNameLen = 1 << 8

// DefaultMaxRecordBytes caps a single record (1 GiB — large enough for
// any evaluation-key upload the wire format accepts) so a corrupt
// length prefix can never drive a huge allocation during replay.
const DefaultMaxRecordBytes = 1 << 30

// DefaultCompactBytes is the WAL size past which an append triggers an
// automatic compaction (snapshot rewrite + log reset).
const DefaultCompactBytes = 64 << 20

const (
	snapFile    = "tenants.snap"
	snapTmpFile = "tenants.snap.tmp"
	walFile     = "tenants.wal"

	snapMagic   uint32 = 0x44584548 // "HEXD"
	snapVersion byte   = 1

	recHeaderLen = 8 // u32 length + u32 crc
)

// Record is one durable state transition.
type Record struct {
	Op   byte
	Name string
	// Keys is the serialized evaluation-key blob (OpRegister only).
	Keys []byte
}

// Tenant is one recovered registration.
type Tenant struct {
	Name string
	Keys []byte
}

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged
	// registration survives power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves flushing to the OS page cache: appends are
	// cheap, and a process kill (the common crash) still loses nothing,
	// but a machine crash may drop the most recent records.
	FsyncNever
)

// Options configures a Store.
type Options struct {
	// Fsync is the append flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// CompactBytes triggers automatic compaction when the WAL grows
	// past it (0 = DefaultCompactBytes, negative = never auto-compact).
	CompactBytes int64
}

// EncodeRecord appends r's wire encoding to buf and returns the
// extended slice. Invalid records (empty or oversized name, keys on an
// unregister) are refused rather than written unreadably.
func EncodeRecord(buf []byte, r Record) ([]byte, error) {
	if len(r.Name) == 0 || len(r.Name) > MaxNameLen {
		return nil, fmt.Errorf("%w: tenant name length %d out of range [1, %d]", ErrInvalidRecord, len(r.Name), MaxNameLen)
	}
	switch r.Op {
	case OpRegister:
	case OpUnregister:
		if len(r.Keys) != 0 {
			return nil, fmt.Errorf("%w: unregister record carries key bytes", ErrInvalidRecord)
		}
	default:
		return nil, fmt.Errorf("%w: unknown record op %#x", ErrInvalidRecord, r.Op)
	}
	payloadLen := 1 + 4 + len(r.Name)
	if r.Op == OpRegister {
		payloadLen += 4 + len(r.Keys)
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = append(buf, 0, 0, 0, 0) // crc backfilled below
	buf = append(buf, r.Op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Name)))
	buf = append(buf, r.Name...)
	if r.Op == OpRegister {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Keys)))
		buf = append(buf, r.Keys...)
	}
	crc := crc32.ChecksumIEEE(buf[start+recHeaderLen:])
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf, nil
}

// DecodeRecord parses one record from the front of b, returning the
// record and the bytes it consumed. A buffer that ends mid-record fails
// with ErrTorn; a complete record that fails validation (checksum, op,
// internal lengths) fails with ErrCorrupt. maxRecord caps the length
// prefix (<= 0 selects DefaultMaxRecordBytes). It never panics and
// never allocates based on an unverified length.
func DecodeRecord(b []byte, maxRecord int) (Record, int, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	if len(b) < recHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTorn, len(b), recHeaderLen)
	}
	payloadLen := binary.LittleEndian.Uint32(b)
	if int64(payloadLen) > int64(maxRecord) {
		return Record{}, 0, fmt.Errorf("%w: payload length %d exceeds the %d-byte record cap", ErrCorrupt, payloadLen, maxRecord)
	}
	total := recHeaderLen + int(payloadLen)
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("%w: record claims %d bytes, %d remain", ErrTorn, total, len(b))
	}
	payload := b[recHeaderLen:total]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum %#x, want %#x", ErrCorrupt, got, want)
	}
	if len(payload) < 5 {
		return Record{}, 0, fmt.Errorf("%w: payload of %d bytes cannot hold op and name length", ErrCorrupt, len(payload))
	}
	rec := Record{Op: payload[0]}
	nameLen := binary.LittleEndian.Uint32(payload[1:])
	if nameLen == 0 || nameLen > MaxNameLen || int(nameLen) > len(payload)-5 {
		return Record{}, 0, fmt.Errorf("%w: name length %d out of range", ErrCorrupt, nameLen)
	}
	rec.Name = string(payload[5 : 5+nameLen])
	rest := payload[5+nameLen:]
	switch rec.Op {
	case OpRegister:
		if len(rest) < 4 {
			return Record{}, 0, fmt.Errorf("%w: register record missing key length", ErrCorrupt)
		}
		keyLen := binary.LittleEndian.Uint32(rest)
		if int(keyLen) != len(rest)-4 {
			return Record{}, 0, fmt.Errorf("%w: key length %d does not match the %d remaining bytes", ErrCorrupt, keyLen, len(rest)-4)
		}
		rec.Keys = append([]byte(nil), rest[4:]...)
	case OpUnregister:
		if len(rest) != 0 {
			return Record{}, 0, fmt.Errorf("%w: unregister record carries %d trailing bytes", ErrCorrupt, len(rest))
		}
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown record op %#x", ErrCorrupt, rec.Op)
	}
	return rec, total, nil
}

// Store is the durable tenant-state store: an in-memory mirror of the
// registrations, backed by the snapshot + WAL pair. Safe for concurrent
// use.
type Store struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	wal     *os.File
	walSize int64
	state   map[string][]byte
	dropped int64
	closed  bool
}

// Open loads (creating if needed) the store in dir: the snapshot is
// read, the WAL replayed on top of it — tolerating a torn tail, which
// is truncated away — and the WAL reopened for appending. The recovered
// registrations are available via Tenants.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("durable: creating state dir: %w", err)
	}
	// A leftover temp snapshot is an interrupted compaction that never
	// committed; the durable pair is still (old snapshot, full WAL).
	os.Remove(filepath.Join(dir, snapTmpFile))

	s := &Store{dir: dir, opts: opts, state: make(map[string][]byte)}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) loadSnapshot() error {
	b, err := os.ReadFile(filepath.Join(s.dir, snapFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: reading snapshot: %w", err)
	}
	// The snapshot is rename-committed, so unlike the WAL it is either
	// absent or complete: any damage here is real corruption.
	if len(b) < 5 {
		return fmt.Errorf("%w: snapshot of %d bytes has no header", ErrCorrupt, len(b))
	}
	if got := binary.LittleEndian.Uint32(b); got != snapMagic {
		return fmt.Errorf("%w: snapshot magic %#x, want %#x", ErrCorrupt, got, snapMagic)
	}
	if b[4] != snapVersion {
		return fmt.Errorf("%w: snapshot version %d, want %d", ErrCorrupt, b[4], snapVersion)
	}
	for off := 5; off < len(b); {
		rec, n, err := DecodeRecord(b[off:], DefaultMaxRecordBytes)
		if err != nil {
			return fmt.Errorf("durable: snapshot record at offset %d: %w", off, err)
		}
		if rec.Op != OpRegister {
			return fmt.Errorf("%w: snapshot holds a non-register record", ErrCorrupt)
		}
		s.state[rec.Name] = rec.Keys
		off += n
	}
	return nil
}

func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("durable: opening WAL: %w", err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: reading WAL: %w", err)
	}
	off := 0
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:], DefaultMaxRecordBytes)
		if err != nil {
			// The torn-tail rule: a record that cannot be applied —
			// truncated, bit-flipped, half a header — is where the crash
			// hit. Everything before it is good; everything from here on
			// is discarded, and the boot proceeds.
			break
		}
		s.apply(rec)
		off += n
	}
	s.dropped = int64(len(b) - off)
	if s.dropped > 0 {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return fmt.Errorf("durable: truncating torn WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: syncing truncated WAL: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("durable: seeking WAL end: %w", err)
	}
	s.wal, s.walSize = f, int64(off)
	return nil
}

func (s *Store) apply(rec Record) {
	switch rec.Op {
	case OpRegister:
		s.state[rec.Name] = rec.Keys
	case OpUnregister:
		delete(s.state, rec.Name)
	}
}

// Tenants returns the current registrations in name order. The key
// slices are shared with the store; callers must not mutate them.
func (s *Store) Tenants() []Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Tenant, 0, len(s.state))
	for name, keys := range s.state {
		out = append(out, Tenant{Name: name, Keys: keys})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DroppedTailBytes reports how many torn-tail bytes Open truncated away
// — at most one unsynced record's worth after a crash mid-append.
func (s *Store) DroppedTailBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// AppendRegister durably records a registration. The record is on disk
// (and, under FsyncAlways, on stable storage) before it returns.
func (s *Store) AppendRegister(name string, keys []byte) error {
	return s.append(Record{Op: OpRegister, Name: name, Keys: keys})
}

// AppendUnregister durably records an eviction.
func (s *Store) AppendUnregister(name string) error {
	return s.append(Record{Op: OpUnregister, Name: name})
}

func (s *Store) append(rec Record) error {
	b, err := EncodeRecord(nil, rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.wal.Write(b); err != nil {
		return fmt.Errorf("durable: appending WAL record: %w", err)
	}
	if s.opts.Fsync == FsyncAlways {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("durable: syncing WAL: %w", err)
		}
	}
	s.walSize += int64(len(b))
	s.apply(rec)
	if s.opts.CompactBytes > 0 && s.walSize > s.opts.CompactBytes {
		return s.compactLocked()
	}
	return nil
}

// Compact rewrites the snapshot from the current state and resets the
// WAL. The snapshot is committed atomically (temp file, fsync, rename,
// directory fsync) before the WAL is touched, so a crash anywhere in
// the sequence recovers either the old pair or the new.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	names := make([]string, 0, len(s.state))
	for name := range s.state {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 5)
	buf = binary.LittleEndian.AppendUint32(buf, snapMagic)
	buf = append(buf, snapVersion)
	var err error
	for _, name := range names {
		if buf, err = EncodeRecord(buf, Record{Op: OpRegister, Name: name, Keys: s.state[name]}); err != nil {
			return err
		}
	}
	tmp := filepath.Join(s.dir, snapTmpFile)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("durable: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapFile)); err != nil {
		return fmt.Errorf("durable: committing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot now covers everything in the WAL; reset it. A crash
	// before the truncate merely replays records the snapshot already
	// holds (register replay overwrites, unregister replay re-deletes).
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: resetting WAL: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("durable: rewinding WAL: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("durable: syncing reset WAL: %w", err)
	}
	s.walSize = 0
	return nil
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening state dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: syncing state dir: %w", err)
	}
	return nil
}

// Close flushes and closes the WAL. The store is crash-only — Close is
// a courtesy for tests and clean shutdowns, and recovery never depends
// on it having run.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("durable: syncing WAL at close: %w", err)
	}
	return s.wal.Close()
}
