package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Keys lists the keys' file names currently stored (quarantine
// excluded), sorted. File names, not original keys: the store does not
// record the pre-hash key string.
func (s *Store) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: list: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Quarantined lists the file names in quarantine, sorted; each is an
// entry's file name plus the suffix Quarantine gives it.
func (s *Store) Quarantined() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineName))
	if err != nil {
		return nil, fmt.Errorf("resultstore: list quarantine: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
