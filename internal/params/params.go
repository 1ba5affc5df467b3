// Package params provides a named-tensor store that saves a network's
// trained weights to disk and loads them back (gob encoding). Names follow
// the "<layer>/<tensor>" convention of caps.Network.Params.
package params

import (
	"encoding/gob"
	"fmt"
	"os"
	"sort"

	"redcane/internal/tensor"
)

// Store is a set of named tensors.
type Store struct {
	tensors map[string]*tensor.Tensor
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tensors: make(map[string]*tensor.Tensor)}
}

// Put registers t under name, replacing any previous entry.
func (s *Store) Put(name string, t *tensor.Tensor) {
	s.tensors[name] = t
}

// Get returns the tensor stored under name.
func (s *Store) Get(name string) (*tensor.Tensor, bool) {
	t, ok := s.tensors[name]
	return t, ok
}

// Names returns the stored names in sorted order.
func (s *Store) Names() []string { return sortedNames(s.tensors) }

// sortedNames returns a tensor map's keys in sorted order.
func sortedNames(m map[string]*tensor.Tensor) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored tensors.
func (s *Store) Len() int { return len(s.tensors) }

// FromParams builds a store from a parameter map (as returned by
// caps.Network.Params), deep-copying every tensor.
func FromParams(params map[string]*tensor.Tensor) *Store {
	s := NewStore()
	for k, v := range params {
		s.Put(k, v.Clone())
	}
	return s
}

// LoadInto copies stored values into the destination parameter map. Every
// destination tensor must have a stored counterpart with an identical
// shape; extra stored tensors are ignored. All names and shapes are
// checked before any tensor is copied, so on error every destination is
// left unchanged.
func (s *Store) LoadInto(params map[string]*tensor.Tensor) error {
	for _, name := range sortedNames(params) {
		src, ok := s.tensors[name]
		if !ok {
			return fmt.Errorf("params: missing tensor %q", name)
		}
		if dst := params[name]; !src.SameShape(dst) {
			return fmt.Errorf("params: shape mismatch for %q: stored %v, want %v", name, src.Shape, dst.Shape)
		}
	}
	for name, dst := range params {
		copy(dst.Data, s.tensors[name].Data)
	}
	return nil
}

// encoded is the gob wire format.
type encoded struct {
	Names  []string
	Shapes [][]int
	Data   [][]float64
}

// Save writes the store to path.
func (s *Store) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("params: save: %w", err)
	}
	defer f.Close()
	var e encoded
	for _, name := range s.Names() {
		t := s.tensors[name]
		e.Names = append(e.Names, name)
		e.Shapes = append(e.Shapes, t.Shape)
		e.Data = append(e.Data, t.Data)
	}
	if err := gob.NewEncoder(f).Encode(e); err != nil {
		return fmt.Errorf("params: encode: %w", err)
	}
	return nil
}

// Load reads a store previously written by Save.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("params: load: %w", err)
	}
	defer f.Close()
	var e encoded
	if err := gob.NewDecoder(f).Decode(&e); err != nil {
		return nil, fmt.Errorf("params: decode: %w", err)
	}
	if len(e.Names) != len(e.Shapes) || len(e.Names) != len(e.Data) {
		return nil, fmt.Errorf("params: corrupt store %q", path)
	}
	s := NewStore()
	for i, name := range e.Names {
		s.Put(name, tensor.NewFrom(e.Data[i], e.Shapes[i]...))
	}
	return s, nil
}
