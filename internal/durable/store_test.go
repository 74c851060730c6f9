package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// stored reads every blob back through Walk, the store's one reader.
func stored(t *testing.T, s *Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := s.Walk(func(key string, data []byte) error {
		got[key] = string(data)
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return got
}

func TestStorePutReplaces(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if err := s.Put("deadbeef01", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := stored(t, s); len(got) != 1 || got["deadbeef01"] != "payload" {
		t.Fatalf("stored = %v", got)
	}
	if err := s.Put("deadbeef01", []byte("replaced")); err != nil {
		t.Fatalf("Put replace: %v", err)
	}
	if got := stored(t, s); len(got) != 1 || got["deadbeef01"] != "replaced" {
		t.Fatalf("stored after replace = %v", got)
	}
}

func TestStoreKeyValidation(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	valid := []string{"sess-7", "a", "AB.cd_ef-01"}
	for _, key := range valid {
		if err := s.Put(key, []byte("x")); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
	}
	for _, key := range []string{"", ".", "..", "a/b", "../escape", "a b", "k\x00"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) should be rejected", key)
		}
	}
	got := stored(t, s)
	if len(got) != len(valid) {
		t.Fatalf("stored %v, want exactly the keys %v", got, valid)
	}
	for _, key := range valid {
		if _, ok := got[key]; !ok {
			t.Fatalf("valid key %q not stored: %v", key, got)
		}
	}
}

func TestStoreWalk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"aa11": "one", "aa22": "two", "bb33": "three", "sess-1": "four"}
	for k, v := range want {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	// A leftover temp file from an interrupted AtomicWrite is skipped.
	if err := os.WriteFile(filepath.Join(dir, "aa", "aa11.tmp99"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := stored(t, s)
	if len(got) != len(want) {
		t.Fatalf("Walk saw %d entries, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Walk[%q] = %q, want %q", k, got[k], v)
		}
	}
	// Walk abort propagates.
	if err := s.Walk(func(string, []byte) error { return fmt.Errorf("stop") }); err == nil {
		t.Fatal("Walk should propagate fn error")
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Put("cafebabe", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(t, s2); got["cafebabe"] != "persisted" {
		t.Fatalf("reopened store = %v", got)
	}
}
