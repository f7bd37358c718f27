package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestRuleNthSync(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	fs.AddRule(Rule{Op: OpSync, Nth: 2, Kind: Fail})

	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync = %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync (one-shot rule should be spent): %v", err)
	}
}

func TestRuleENOSPCEveryWrite(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	fs.AddRule(Rule{Op: OpWrite, Nth: 0, Kind: ENOSPC})

	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d = %v, want ENOSPC", i, err)
		}
	}
}

func TestShortWriteTearsBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	fs := New(nil)
	fs.AddRule(Rule{Op: OpWrite, Path: "x", Nth: 1, Kind: ShortWrite})

	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	if n != 4 {
		t.Fatalf("torn write wrote %d bytes, want 4", n)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1234" {
		t.Fatalf("on-disk bytes %q, want the torn half %q", got, "1234")
	}
}

func TestCrashAtStopsTheWorld(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)

	// Counting pass: open + two writes + sync + rename = 5 mutating ops.
	f, err := fs.OpenFile(filepath.Join(dir, "a"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("xx"))
	f.Write([]byte("yy"))
	f.Sync()
	f.Close()
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if got := fs.Ops(); got != 5 {
		t.Fatalf("counted %d ops, want 5", got)
	}

	// Crash at the rename (op 5 relative to now): everything before
	// lands, the rename does not, and later ops are dead.
	fs.SetCrashAt(5)
	g, err := fs.OpenFile(filepath.Join(dir, "c"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("xx"))
	g.Write([]byte("yy"))
	g.Sync()
	g.Close()
	if err := fs.Rename(filepath.Join(dir, "c"), filepath.Join(dir, "d")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point rename = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("FS not marked crashed")
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "e"), os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open = %v, want ErrCrashed", err)
	}
	if _, err := fs.Stat(filepath.Join(dir, "c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat = %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c")); err != nil {
		t.Fatalf("pre-crash writes should persist on the real disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "d")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed rename must not reach the real disk")
	}
}
