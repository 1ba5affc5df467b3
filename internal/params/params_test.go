package params

import (
	"path/filepath"
	"testing"

	"redcane/internal/tensor"
)

func TestPutGetNames(t *testing.T) {
	s := NewStore()
	s.Put("a/W", tensor.New(2, 2).Fill(1))
	s.Put("b/W", tensor.New(3))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, ok := s.Get("a/W")
	if !ok || got.Len() != 4 {
		t.Fatal("Get failed")
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get of missing key succeeded")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a/W" || names[1] != "b/W" {
		t.Fatalf("Names = %v", names)
	}
}

func TestFromParamsDeepCopies(t *testing.T) {
	w := tensor.New(2).Fill(5)
	s := FromParams(map[string]*tensor.Tensor{"l/W": w})
	w.Data[0] = 9
	got, _ := s.Get("l/W")
	if got.Data[0] != 5 {
		t.Fatal("FromParams must deep-copy")
	}
}

func TestLoadInto(t *testing.T) {
	src := tensor.NewFrom([]float64{1, 2, 3, 4}, 2, 2)
	s := NewStore()
	s.Put("l/W", src)
	dst := tensor.New(2, 2)
	if err := s.LoadInto(map[string]*tensor.Tensor{"l/W": dst}); err != nil {
		t.Fatal(err)
	}
	if dst.Data[3] != 4 {
		t.Fatalf("LoadInto copied wrong data: %v", dst.Data)
	}
}

func TestLoadIntoMissingTensor(t *testing.T) {
	s := NewStore()
	err := s.LoadInto(map[string]*tensor.Tensor{"l/W": tensor.New(1)})
	if err == nil {
		t.Fatal("expected error for missing tensor")
	}
}

func TestLoadIntoShapeMismatch(t *testing.T) {
	s := NewStore()
	s.Put("l/W", tensor.New(2, 3))
	err := s.LoadInto(map[string]*tensor.Tensor{"l/W": tensor.New(3, 2)})
	if err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestLoadIntoFailureLeavesDestinationsUnchanged(t *testing.T) {
	// A weight cache that is present but unusable must not half-load the
	// network that is then trained from it: every check runs before any
	// copy.
	names := []string{"a/W", "b/W", "c/W", "d/W", "e/W", "f/W"}
	for _, bad := range []string{"missing", "shape"} {
		s := NewStore()
		dst := map[string]*tensor.Tensor{}
		for i, name := range names {
			dst[name] = tensor.New(i + 1).Fill(-1)
			switch {
			case name != "d/W":
				s.Put(name, tensor.New(i+1).Fill(7))
			case bad == "shape":
				s.Put(name, tensor.New(i+2).Fill(7))
			}
		}
		if err := s.LoadInto(dst); err == nil {
			t.Fatalf("%s: expected an error", bad)
		}
		for name, d := range dst {
			for _, v := range d.Data {
				if v != -1 {
					t.Fatalf("%s: %s was overwritten before the error: %v", bad, name, d.Data)
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "weights.gob")
	s := NewStore()
	s.Put("conv/W", tensor.New(2, 3).FillNormal(tensor.NewRNG(1), 0, 1))
	s.Put("conv/B", tensor.New(3).Fill(0.5))
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d tensors", loaded.Len())
	}
	orig, _ := s.Get("conv/W")
	got, _ := loaded.Get("conv/W")
	if !got.SameShape(orig) {
		t.Fatalf("shape %v vs %v", got.Shape, orig.Shape)
	}
	for i := range orig.Data {
		if got.Data[i] != orig.Data[i] {
			t.Fatal("round trip altered data")
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
