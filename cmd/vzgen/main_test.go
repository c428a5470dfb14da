package main

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs vzgen's main instead of the tests when the test binary
// is re-executed with VZGEN_MAIN=1, so a test can drive the command.
func TestMain(m *testing.M) {
	if os.Getenv("VZGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputDeterministic runs vzgen twice and requires byte-identical
// trees: every archive, the as2org directory included.
func TestOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two full archive trees")
	}
	var trees [2]map[string][]byte
	for i := range trees {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-out", dir, "-step", "6")
		cmd.Env = append(os.Environ(), "VZGEN_MAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("vzgen run %d: %v\n%s", i, err, out)
		}
		trees[i] = readTree(t, dir)
	}
	if len(trees[0]) != len(trees[1]) {
		t.Errorf("runs wrote %d and %d files", len(trees[0]), len(trees[1]))
	}
	for rel, a := range trees[0] {
		if !bytes.Equal(a, trees[1][rel]) {
			t.Errorf("%s differs between two runs", rel)
		}
	}
}

// readTree returns every file under dir, keyed by its relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
