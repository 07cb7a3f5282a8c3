package storage

import (
	"errors"
	"testing"
)

func TestLocalRoundtrip(t *testing.T) {
	b, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(b, "CURRENT", []byte("manifest-000001.json\n")); err != nil {
		t.Fatal(err)
	}
	data, err := ReadFile(b, "CURRENT")
	if err != nil || string(data) != "manifest-000001.json\n" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "CURRENT" {
		t.Fatalf("List = %v; the temporary must be renamed away", names)
	}

	// ReadAt handles are read-only: published files are never rewritten.
	f, size, err := b.ReadAt("CURRENT")
	if err != nil || size != 21 {
		t.Fatalf("ReadAt: %v, size %d", err, size)
	}
	if _, err := f.WriteAt([]byte("M"), 0); err == nil {
		t.Fatal("WriteAt through a ReadAt handle succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ = ReadFile(b, "CURRENT"); string(data) != "manifest-000001.json\n" {
		t.Fatalf("ReadAt handle changed the file: %q", data)
	}

	if err := b.Rename("CURRENT", "OLD"); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("OLD"); err != nil {
		t.Fatal(err)
	}
	names, _ = b.List()
	if len(names) != 0 {
		t.Fatalf("List after remove = %v", names)
	}
}

func TestValidateName(t *testing.T) {
	b, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
		if _, err := b.Create(bad); err == nil {
			t.Fatalf("Create(%q) accepted an invalid name", bad)
		}
	}
}

func TestLocalReadAtMissing(t *testing.T) {
	b, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ReadAt("nope"); err == nil {
		t.Fatal("ReadAt on a missing file succeeded")
	}
}

func TestWriteFileAtomicCleansUpOnFailure(t *testing.T) {
	fb := NewFault("t")
	boom := errors.New("boom")
	fb.SetFailOp(func(op Op) error {
		if op.Kind == OpSync {
			return boom
		}
		return nil
	})
	if err := WriteFileAtomic(fb, "CURRENT", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want injected error", err)
	}
	fb.SetFailOp(nil)
	names, err := fb.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("failed atomic write left %v behind", names)
	}
}
