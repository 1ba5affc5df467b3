package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"redcane/internal/obs"
)

// DirStore is the job manager's persistence: everything the service
// durably knows about a job — its manifest (spec + lifecycle state), its
// checkpoints and its result artifacts — lives in jobs/<id>/ under one
// state root.
type DirStore struct {
	root string
	obs  *obs.Obs
}

// NewDirStore opens (creating if needed) a directory store rooted at
// <stateDir>/jobs.
func NewDirStore(stateDir string, o *obs.Obs) (*DirStore, error) {
	if o == nil {
		o = obs.New(obs.Off, nil)
	}
	root := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &DirStore{root: root, obs: o}, nil
}

// Load returns every readable jobs/<id>/job.json whose ID matches its
// directory name, in no particular order. Unreadable or corrupt
// manifests are warned about and skipped — one damaged job must not take
// the whole service down.
func (d *DirStore) Load() ([]jobFile, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var out []jobFile
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(d.root, e.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			d.obs.Warn("job manifest unreadable; skipping", obs.F("path", path), obs.F("err", err))
			continue
		}
		var jf jobFile
		if err := json.Unmarshal(data, &jf); err != nil || jf.ID != e.Name() {
			d.obs.Warn("job manifest corrupt; skipping", obs.F("path", path), obs.F("err", err))
			continue
		}
		out = append(out, jf)
	}
	return out, nil
}

// Put records one job's manifest, crash-safe (temp + rename); the same
// ID overwrites.
func (d *DirStore) Put(jf jobFile) error {
	dir := filepath.Join(d.root, jf.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(jf, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "job.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "job.json"))
}

// Dir returns the job's working directory (checkpoints, scratch),
// creating it if needed. Its base name is the job ID, which job executors
// key their fleet registrations off.
func (d *DirStore) Dir(id string) (string, error) {
	dir := filepath.Join(d.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// PutArtifact persists one named result artifact of a job.
func (d *DirStore) PutArtifact(id, name string, data []byte) error {
	return os.WriteFile(filepath.Join(d.root, id, name), data, 0o644)
}

// Artifact reads one artifact back; a missing artifact reports an error
// wrapping fs.ErrNotExist.
func (d *DirStore) Artifact(id, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.root, id, name))
}
