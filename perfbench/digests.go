package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// committedDigests pins the SHA-256 of each workload's output for the
// seeds it was recorded at. Every output is deterministic for a seed, so
// a change that moves one byte of a report fails the benchmark's
// correctness check instead of passing as a speed-up.
//
//go:embed digests.json
var committedDigests []byte

// digestBook checks op outputs against the committed digests and, for
// seeds not committed, against the digest the first run of that seed in
// this checkout recorded.
type digestBook struct {
	path      string
	committed map[string]string
	recorded  map[string]string
	dirty     bool
}

func loadDigests(path string) (*digestBook, error) {
	b := &digestBook{path: path, recorded: map[string]string{}}
	if err := json.Unmarshal(committedDigests, &b.committed); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.recorded); err != nil {
		return nil, fmt.Errorf("recorded digests %s: %w", path, err)
	}
	return b, nil
}

func digestKey(workload string, seed uint64) string {
	return fmt.Sprintf("%s/seed%d", workload, seed)
}

func (b *digestBook) check(workload string, seed uint64, out []byte) error {
	key, got := digestKey(workload, seed), digestOf(out)
	if want, ok := b.committed[key]; ok {
		if got != want {
			return fmt.Errorf("output digest %s differs from the committed %s for %s", got, want, key)
		}
		return nil
	}
	if want, ok := b.recorded[key]; ok {
		if got != want {
			return fmt.Errorf("output digest %s differs from the %s recorded earlier for %s", got, want, key)
		}
		return nil
	}
	b.recorded[key] = got
	b.dirty = true
	return nil
}

// save writes newly recorded digests, replacing the file atomically.
func (b *digestBook) save() error {
	if !b.dirty {
		return nil
	}
	data, err := json.MarshalIndent(b.recorded, "", "  ")
	if err != nil {
		return err
	}
	tmp := b.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path)
}
