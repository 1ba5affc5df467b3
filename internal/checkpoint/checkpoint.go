// Package checkpoint persists completed analysis work so interrupted
// runs resume without recomputation. A Store is a single versioned JSON
// file keyed by (name, seed, options-fingerprint) holding opaque
// sections; the analysis engine's fold writes one per sweep
// ("sweep-<seedBase>") or named evaluation as its windows fold, and reads
// it back on restart. A store keeps every section it loaded, including
// ones no reader asks for. Because the key fingerprints every
// results-affecting option and the sweep engine is counter-seeded, a
// resumed run reproduces an uninterrupted one bit-for-bit.
//
// Writes are crash-safe: the file is rewritten to a temporary sibling
// and renamed into place, so a checkpoint is either the previous
// consistent state or the new one, never a torn write. A file whose
// (name, seed, fingerprint) no longer matches — the options changed —
// is ignored and overwritten on the next Put.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Version is the checkpoint file schema version. Files with a different
// version are ignored (treated as absent), never migrated.
const Version = 1

// state is the on-disk form of a Store.
type state struct {
	Version     int                        `json:"version"`
	Name        string                     `json:"name"`
	Seed        uint64                     `json:"seed"`
	Fingerprint string                     `json:"fingerprint"`
	Sections    map[string]json.RawMessage `json:"sections"`
}

// Store is one checkpoint file. Methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	path  string
	state state
}

// Path returns the checkpoint file path for a key, without touching the
// filesystem.
func Path(dir, name string, seed uint64, fingerprint string) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%s-seed%d-%s.json", sanitize(name), seed, fingerprint))
}

// sanitize keeps file names portable.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// Open loads the checkpoint for (name, seed, fingerprint) under dir.
// The returned Store is always usable; resumed reports whether an
// existing matching checkpoint was loaded. A checkpoint whose key does
// not match (the options changed since it was written) is ignored. A
// present-but-corrupt file yields a fresh Store plus the parse error, so
// callers can surface the loss instead of silently recomputing.
func Open(dir, name string, seed uint64, fingerprint string) (st *Store, resumed bool, err error) {
	st = &Store{
		path: Path(dir, name, seed, fingerprint),
		state: state{
			Version: Version, Name: name, Seed: seed, Fingerprint: fingerprint,
			Sections: map[string]json.RawMessage{},
		},
	}
	data, err := os.ReadFile(st.path)
	if errors.Is(err, fs.ErrNotExist) {
		return st, false, nil
	}
	if err != nil {
		return st, false, fmt.Errorf("checkpoint: read %s: %w", st.path, err)
	}
	var loaded state
	if err := json.Unmarshal(data, &loaded); err != nil {
		return st, false, fmt.Errorf("checkpoint: corrupt file %s: %w", st.path, err)
	}
	if loaded.Version != Version || loaded.Name != name ||
		loaded.Seed != seed || loaded.Fingerprint != fingerprint {
		return st, false, nil
	}
	if loaded.Sections == nil {
		loaded.Sections = map[string]json.RawMessage{}
	}
	st.state = loaded
	return st, true, nil
}

// Path returns the file this store persists to.
func (s *Store) Path() string { return s.path }

// Get unmarshals the named section into v, reporting whether the
// section exists and decoded cleanly.
func (s *Store) Get(key string, v any) bool {
	s.mu.Lock()
	raw, ok := s.state.Sections[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, v) == nil
}

// Put stores v under key and atomically rewrites the checkpoint file.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode section %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state.Sections[key] = raw
	return s.save()
}

// save writes the whole state via a temp file + rename (crash-safe).
// Callers hold s.mu.
func (s *Store) save() error {
	data, err := json.MarshalIndent(&s.state, "", " ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Fingerprint hashes a canonical description of the results-affecting
// configuration into a short stable hex key (FNV-1a 64).
func Fingerprint(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}
