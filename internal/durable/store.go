package durable

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Store is a content-addressed blob store on disk: each key maps to
// one file under a two-level fan-out (dir/ab/abcdef...) and every
// write goes through AtomicWrite, so a crash mid-spill never leaves a
// torn entry.  Keys are restricted to [A-Za-z0-9._-], which admits
// hex digests, so nothing can escape the root.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func validKey(key string) bool {
	if key == "" || len(key) > 256 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	// "." and ".." are valid by character class but are path traversal.
	return key != "." && key != ".."
}

// path fans the key out over a two-character prefix directory.
func (s *Store) path(key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, prefix, key)
}

// Put durably writes the blob for key, replacing any previous value.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("durable: invalid store key %q", key)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("durable: store put %s: %w", key, err)
	}
	return AtomicWrite(path, data)
}

// Walk visits every stored blob.  Returning an error from fn aborts
// the walk and propagates the error.  Temp files left by an
// interrupted AtomicWrite are skipped (and opportunistically removed).
func (s *Store) Walk(fn func(key string, data []byte) error) error {
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.Contains(name, ".tmp") {
			os.Remove(path)
			return nil
		}
		if !validKey(name) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("durable: store walk: %w", err)
		}
		return fn(name, data)
	})
}
