package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunList covers the -list flag.
func TestRunList(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("run(-list) = %d, want 0", got)
	}
}

// TestStandaloneCleanTree runs the standalone driver over a couple of real
// repo packages, which must be lint-clean.
func TestStandaloneCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	if got := run([]string{"../../internal/metrics", "../../internal/report"}); got != 0 {
		t.Fatalf("mglint over clean packages = %d, want 0", got)
	}
}

// TestStandaloneBrokenFixture runs the standalone driver over the
// deliberately broken smoke fixture (its own mini-module under testdata, so
// the repo's ./... never sees it) and requires a non-zero exit.
func TestStandaloneBrokenFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	fixture, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "smoke"))
	if err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(fixture); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	if got := run([]string{"./..."}); got != 1 {
		t.Fatalf("mglint over the broken fixture = %d, want 1", got)
	}
}
