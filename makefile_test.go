package gpuresilience_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryTarget keeps `make fuzz` complete: every Fuzz
// function in the module must have a line in the Makefile's fuzz recipe
// that runs it, by exact name, in its own package.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := string(makefile)
	if i := strings.Index(recipe, "\nfuzz:\n"); i >= 0 {
		recipe = recipe[i:]
		if j := strings.Index(recipe, "\n\n"); j >= 0 {
			recipe = recipe[:j]
		}
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			want := "-fuzz '^" + m[1] + "$$'"
			pkg := "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
			ok := false
			for _, line := range strings.Split(recipe, "\n") {
				if strings.Contains(line, want) && strings.HasSuffix(strings.TrimSpace(line), pkg) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("make fuzz does not run %s in %s", m[1], pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no Fuzz functions; the walk is broken")
	}
}
