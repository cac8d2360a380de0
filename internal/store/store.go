// Package store is a disk-persistent, content-addressed result store: it
// maps a canonical spec digest (the same sha256 the server's result cache
// keys on) to the rendered result body computed for that spec, so completed
// work survives process restarts and a repeated spec is served from disk at
// cache speed instead of re-running the Monte Carlo engine.
//
// Layout: one file per entry under dir/<digest[:2]>/<digest>, fanned out by
// the first digest byte so no single directory grows unboundedly. Each file
// is a one-line JSON meta header (body checksum, length, creation time)
// followed by the raw body bytes. Writes go to a temp file in the same
// directory, are fsynced, and are renamed into place — readers never see a
// partial entry, and concurrent writers of the same key are idempotent
// (the body is a pure function of the key, so last-rename-wins is
// harmless). Reads verify length and checksum; a corrupt entry is deleted
// and reported as ErrCorrupt so callers fall back to recompute.
//
// The store itself is the cold tier. The job manager's in-memory job table
// fronts it (the server's result cache holds sync response bodies, which
// are different bytes, and never reads the store). Callers use Meta.ETag
// for HTTP conditional requests: the ETag is the hex sha256 of the body,
// so it is stable across restarts and across replicas that computed the
// same spec.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"hitl/internal/telemetry"
)

// ErrNotFound reports a key with no stored entry.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt reports an entry whose on-disk bytes failed the integrity
// check; the entry has already been removed by the time Get returns it.
var ErrCorrupt = errors.New("store: corrupt entry")

// Meta describes a stored entry.
type Meta struct {
	// Key is the content address (the canonical spec digest).
	Key string `json:"key"`
	// SHA256 is the hex checksum of the body; it doubles as the HTTP ETag
	// (quoted) for conditional reads.
	SHA256 string `json:"sha256"`
	// Size is the body length in bytes.
	Size int64 `json:"size"`
	// CreatedAt is when the entry was written (wall clock, informational).
	CreatedAt time.Time `json:"created_at"`
}

// ETag is the entry's strong HTTP entity tag: the quoted body checksum.
func (m Meta) ETag() string { return `"` + m.SHA256 + `"` }

// Store is a content-addressed file store rooted at one directory. All
// methods are safe for concurrent use; cross-process sharing is safe too
// because entries are immutable once renamed into place.
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	writes  atomic.Int64
	corrupt atomic.Int64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey constrains keys to lowercase-hex digests. This is a safety
// property, not pedantry: the key becomes a file path, so anything outside
// hex (separators, dots) could escape the store directory.
func validKey(key string) error {
	if len(key) < 8 || len(key) > 128 {
		return fmt.Errorf("store: key length %d outside [8, 128]", len(key))
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// path returns the entry file for a validated key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Put stores body under key atomically: the entry is written to a temp
// file in the target directory, fsynced, and renamed into place. An
// existing entry is replaced (the body is content-addressed by the key, so
// a replacement is byte-identical in practice).
func (s *Store) Put(key string, body []byte) (Meta, error) {
	if err := validKey(key); err != nil {
		return Meta{}, err
	}
	sum := sha256.Sum256(body)
	meta := Meta{
		Key:       key,
		SHA256:    hex.EncodeToString(sum[:]),
		Size:      int64(len(body)),
		CreatedAt: time.Now().UTC(),
	}
	header, err := json.Marshal(meta)
	if err != nil {
		return Meta{}, fmt.Errorf("store: encoding meta: %w", err)
	}

	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return Meta{}, fmt.Errorf("store: creating shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), ".tmp-"+key[:8]+"-*")
	if err != nil {
		return Meta{}, fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(append(header, '\n')); err == nil {
		_, err = w.Write(body)
		if err == nil {
			err = w.Flush()
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Meta{}, fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return Meta{}, fmt.Errorf("store: publishing %s: %w", key, err)
	}
	s.writes.Add(1)
	return meta, nil
}

// Get returns the stored body and meta for key. A missing entry reports
// ErrNotFound; an entry whose bytes fail the length or checksum test is
// deleted and reported as ErrCorrupt (both testable with errors.Is), so
// the caller can fall through to recompute.
func (s *Store) Get(key string) ([]byte, Meta, error) {
	if err := validKey(key); err != nil {
		return nil, Meta{}, err
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, Meta{}, fmt.Errorf("store: reading %s: %w", key, err)
	}
	meta, body, err := decodeEntry(key, raw)
	if err != nil {
		// Quarantine by deletion: a corrupt entry must not be served, and
		// leaving it would fail every future read the same way.
		_ = os.Remove(s.path(key))
		s.corrupt.Add(1)
		telemetry.Flight.Record(telemetry.EventStoreQuarantine, key+": "+err.Error())
		return nil, Meta{}, err
	}
	s.hits.Add(1)
	return body, meta, nil
}

// decodeEntry splits and verifies one entry file's bytes.
func decodeEntry(key string, raw []byte) (Meta, []byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return Meta{}, nil, fmt.Errorf("%w: %s: missing meta header", ErrCorrupt, key)
	}
	var meta Meta
	if err := json.Unmarshal(raw[:nl], &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %s: bad meta header: %v", ErrCorrupt, key, err)
	}
	body := raw[nl+1:]
	if meta.Key != key {
		return Meta{}, nil, fmt.Errorf("%w: %s: header names key %s", ErrCorrupt, key, meta.Key)
	}
	if int64(len(body)) != meta.Size {
		return Meta{}, nil, fmt.Errorf("%w: %s: body is %d bytes, header says %d",
			ErrCorrupt, key, len(body), meta.Size)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != meta.SHA256 {
		return Meta{}, nil, fmt.Errorf("%w: %s: body checksum mismatch", ErrCorrupt, key)
	}
	return meta, body, nil
}

// Stat returns the meta for key without reading (or verifying) the body.
// It reads only the header line, so it is cheap enough for status probes.
func (s *Store) Stat(key string) (Meta, error) {
	if err := validKey(key); err != nil {
		return Meta{}, err
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return Meta{}, fmt.Errorf("store: opening %s: %w", key, err)
	}
	defer f.Close()
	header, err := bufio.NewReader(io.LimitReader(f, 4096)).ReadBytes('\n')
	if err != nil {
		return Meta{}, fmt.Errorf("%w: %s: unreadable meta header", ErrCorrupt, key)
	}
	var meta Meta
	if err := json.Unmarshal(bytes.TrimSuffix(header, []byte("\n")), &meta); err != nil {
		return Meta{}, fmt.Errorf("%w: %s: bad meta header: %v", ErrCorrupt, key, err)
	}
	return meta, nil
}

// Has reports whether an entry exists for key (without integrity
// verification; Get still performs the full check).
func (s *Store) Has(key string) bool {
	if validKey(key) != nil {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Keys walks the store and returns every entry key, sorted by the
// directory walk order. Intended for diagnostics and smoke tests, not the
// serving path.
func (s *Store) Keys() ([]string, error) {
	var out []string
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
			return err
		}
		if validKey(d.Name()) == nil {
			out = append(out, d.Name())
		}
		return nil
	})
	return out, err
}

// WriteMetrics appends the store counters to a Prometheus text scrape.
func (s *Store) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# HELP hitl_store_hits_total Result-store reads served from disk.\n")
	b.WriteString("# TYPE hitl_store_hits_total counter\n")
	fmt.Fprintf(&b, "hitl_store_hits_total %d\n", s.hits.Load())
	b.WriteString("# HELP hitl_store_misses_total Result-store reads with no entry on disk.\n")
	b.WriteString("# TYPE hitl_store_misses_total counter\n")
	fmt.Fprintf(&b, "hitl_store_misses_total %d\n", s.misses.Load())
	b.WriteString("# HELP hitl_store_writes_total Result-store entries published (write-temp-then-rename).\n")
	b.WriteString("# TYPE hitl_store_writes_total counter\n")
	fmt.Fprintf(&b, "hitl_store_writes_total %d\n", s.writes.Load())
	b.WriteString("# HELP hitl_store_corrupt_total Entries that failed the integrity check on read and were removed.\n")
	b.WriteString("# TYPE hitl_store_corrupt_total counter\n")
	fmt.Fprintf(&b, "hitl_store_corrupt_total %d\n", s.corrupt.Load())
	_, err := io.WriteString(w, b.String())
	return err
}
