package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type section struct {
	Correct []int `json:"correct"`
	Done    bool  `json:"done"`
}

func TestOpenFreshPutGetReload(t *testing.T) {
	dir := t.TempDir()
	st, resumed, err := Open(dir, "capsnet-mnist-like-quick", 42, Fingerprint("opts-v1"))
	if err != nil || resumed {
		t.Fatalf("fresh open: resumed=%v err=%v", resumed, err)
	}
	if st.Get("sweep-1", &section{}) {
		t.Fatal("fresh store reported a section")
	}
	want := section{Correct: []int{3, 1, 4}, Done: true}
	if err := st.Put("sweep-1", want); err != nil {
		t.Fatal(err)
	}

	// A fresh handle (new process) must see the persisted section.
	st2, resumed, err := Open(dir, "capsnet-mnist-like-quick", 42, Fingerprint("opts-v1"))
	if err != nil || !resumed {
		t.Fatalf("reopen: resumed=%v err=%v", resumed, err)
	}
	var got section
	if !st2.Get("sweep-1", &got) {
		t.Fatal("section lost across reopen")
	}
	if !got.Done || len(got.Correct) != 3 || got.Correct[2] != 4 {
		t.Fatalf("section = %+v", got)
	}
}

func TestKeyMismatchIgnoresFile(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := Open(dir, "b", 1, Fingerprint("a"))
	if err := st.Put("x", section{Done: true}); err != nil {
		t.Fatal(err)
	}
	// Different fingerprint → same options key no longer matches; the
	// old state must not leak into the new run.
	st2, resumed, err := Open(dir, "b", 1, Fingerprint("b"))
	if err != nil {
		t.Fatal(err)
	}
	if resumed || st2.Get("x", &section{}) {
		t.Fatal("mismatched fingerprint resumed stale state")
	}
	// Same goes for seed.
	st3, resumed, _ := Open(dir, "b", 2, Fingerprint("a"))
	if resumed || st3.Get("x", &section{}) {
		t.Fatal("mismatched seed resumed stale state")
	}
}

func TestCorruptFileReportsErrorButStaysUsable(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, "b", 1, Fingerprint("a"))
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, resumed, err := Open(dir, "b", 1, Fingerprint("a"))
	if err == nil || resumed {
		t.Fatalf("corrupt file: resumed=%v err=%v", resumed, err)
	}
	// The fresh store still works and overwrites the corrupt file.
	if err := st.Put("x", section{Done: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, "b", 1, Fingerprint("a")); err != nil {
		t.Fatalf("overwritten checkpoint still corrupt: %v", err)
	}
}

func TestAtomicSaveLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := Open(dir, "b", 1, Fingerprint("a"))
	if err := st.Put("x", section{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// savedState returns the bytes a Put of one section writes, for building
// the files a write interrupted at some point leaves behind.
func savedState(t *testing.T, dir string, v section) []byte {
	t.Helper()
	st, _, _ := Open(dir, "b", 1, Fingerprint("a"))
	if err := st.Put("x", v); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

func TestKilledWhileWritingTempKeepsOldState(t *testing.T) {
	// The write died while the temporary was written: the old file is
	// intact beside a torn temporary, opens as it was, and the next Put
	// overwrites the temporary and moves it into place.
	dir := t.TempDir()
	savedState(t, dir, section{Correct: []int{1}})
	newer := savedState(t, t.TempDir(), section{Correct: []int{2}, Done: true})
	path := Path(dir, "b", 1, Fingerprint("a"))
	if err := os.WriteFile(path+".tmp", newer[:len(newer)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, resumed, err := Open(dir, "b", 1, Fingerprint("a"))
	if err != nil || !resumed {
		t.Fatalf("open beside a torn temporary: resumed=%v err=%v", resumed, err)
	}
	var got section
	if !st.Get("x", &got) || got.Done || len(got.Correct) != 1 || got.Correct[0] != 1 {
		t.Fatalf("opened state = %+v, want the old one", got)
	}
	if err := st.Put("x", section{Correct: []int{3}}); err != nil {
		t.Fatal(err)
	}
	if exists(t, path+".tmp") {
		t.Fatal("temporary left behind after Put")
	}
	st2, resumed, err := Open(dir, "b", 1, Fingerprint("a"))
	if err != nil || !resumed || !st2.Get("x", &got) || len(got.Correct) != 1 || got.Correct[0] != 3 {
		t.Fatalf("after Put: resumed=%v err=%v state=%+v", resumed, err, got)
	}
}

func TestKilledAfterRemoveResumesTemp(t *testing.T) {
	// The write died between removing the file and renaming the complete
	// temporary into place: Open resumes the temporary and moves it to
	// Path, so the next Put cannot truncate the only copy.
	dir := t.TempDir()
	data := savedState(t, dir, section{Correct: []int{2}, Done: true})
	path := Path(dir, "b", 1, Fingerprint("a"))
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	st, resumed, err := Open(dir, "b", 1, Fingerprint("a"))
	if err != nil || !resumed {
		t.Fatalf("open of a lone complete temporary: resumed=%v err=%v", resumed, err)
	}
	var got section
	if !st.Get("x", &got) || !got.Done || len(got.Correct) != 1 || got.Correct[0] != 2 {
		t.Fatalf("resumed state = %+v", got)
	}
	if exists(t, path+".tmp") {
		t.Fatal("resumed temporary not moved into place")
	}
	moved, err := os.ReadFile(st.Path())
	if err != nil || !bytes.Equal(moved, data) {
		t.Fatalf("file at Path after resume: err=%v, equal=%v", err, bytes.Equal(moved, data))
	}
}

func TestTornFirstWriteNeverResumes(t *testing.T) {
	// A first write cut short leaves only a torn temporary: it must open
	// as a fresh store, never as resumed state.
	dir := t.TempDir()
	data := savedState(t, t.TempDir(), section{Correct: []int{2}, Done: true})
	path := Path(dir, "b", 1, Fingerprint("a"))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path+".tmp", data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		st, resumed, _ := Open(dir, "b", 1, Fingerprint("a"))
		if resumed || st.Get("x", &section{}) {
			t.Fatalf("torn temporary of %d/%d bytes resumed", n, len(data))
		}
		if exists(t, path) {
			t.Fatalf("torn temporary of %d/%d bytes moved into place", n, len(data))
		}
	}
}

func TestPathSanitizesName(t *testing.T) {
	p := Path("d", "caps net/µ", 1, "f")
	if base := filepath.Base(p); strings.ContainsAny(base, " /µ") {
		t.Fatalf("unsanitized path %q", base)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	if Fingerprint("a") != Fingerprint("a") {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint("a") == Fingerprint("b") {
		t.Fatal("distinct inputs collided")
	}
	if len(Fingerprint("a")) != 16 {
		t.Fatalf("fingerprint length %d", len(Fingerprint("a")))
	}
}
