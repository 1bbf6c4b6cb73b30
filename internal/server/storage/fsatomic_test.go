package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write creates the file and a second write
// replaces it whole; a failing write func or an uncreatable tmp path
// returns the error and leaves the old file, and no tmp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	want := func(body string) {
		t.Helper()
		if b, err := os.ReadFile(path); err != nil || string(b) != body {
			t.Fatalf("file = %q, %v; want %q", b, err, body)
		}
	}

	if err := WriteFileAtomic(dir, "MANIFEST", writeString("first\n")); err != nil {
		t.Fatal(err)
	}
	want("first\n")
	if err := WriteFileAtomic(dir, "MANIFEST", writeString("second\n")); err != nil {
		t.Fatal(err)
	}
	want("second\n")

	boom := errors.New("boom")
	err := WriteFileAtomic(dir, "MANIFEST", func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write func: err = %v, want %v", err, boom)
	}
	want("second\n")
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed write left %s.tmp behind (stat err %v)", path, err)
	}

	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dir, "MANIFEST", writeString("third\n")); err == nil {
		t.Fatal("a directory at the tmp path: want an error")
	}
	want("second\n")
}
