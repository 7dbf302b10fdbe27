// Package examples_test smoke-tests every example binary: each must build
// and complete a tiny (-quick) run, so the examples cannot silently rot as
// the APIs underneath them move.
package examples_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// exampleDirs discovers the example main packages (every subdirectory with
// a main.go).
func exampleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); err == nil {
				dirs = append(dirs, e.Name())
			}
		}
	}
	if !slices.Contains(dirs, "quickstart") {
		t.Fatalf("quickstart not among the example dirs: %v", dirs)
	}
	return dirs
}

func TestExamplesBuildAndRun(t *testing.T) {
	bin := t.TempDir()
	for _, dir := range exampleDirs(t) {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			exe := filepath.Join(bin, dir)
			build := exec.Command("go", "build", "-o", exe, "./examples/"+dir)
			build.Dir = ".." // repo root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./examples/%s: %v\n%s", dir, err, out)
			}

			// A deadline so one hung example fails its subtest instead of
			// stalling the whole test binary.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			run := exec.CommandContext(ctx, exe, "-quick")
			run.WaitDelay = 10 * time.Second
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("%s -quick: %v\n%s", dir, err, out)
			}
			if strings.TrimSpace(string(out)) == "" {
				t.Fatalf("%s -quick produced no output", dir)
			}
		})
	}
}
