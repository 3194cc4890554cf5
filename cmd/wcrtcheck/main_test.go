package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/model"
)

// runMainEnv makes the test binary run the command itself, so a test
// can re-execute it with command-line arguments and observe the exit
// status.
const runMainEnv = "WCRTCHECK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOversizedHyperperiod checks that a small spec whose
// periods unroll to ~100k jobs is refused by the static pre-flight
// (exit 1, MC0126 on stderr) instead of being compiled.
func TestRejectsOversizedHyperperiod(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-spec",
		filepath.Join("..", "..", "internal", "validate", "testdata", "oversized_hyperperiod.json"))
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("wcrtcheck: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "MC0126") {
		t.Fatalf("stderr does not name MC0126:\n%s", stderr.String())
	}
}

// TestDropListSkipsEmptyItems checks that an empty item of -drop is
// skipped: "best0," drops exactly what "best0" drops, on a mapped
// DT-large design.
func TestDropListSkipsEmptyItems(t *testing.T) {
	b := benchmarks.DTLarge()
	man, err := b.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "design.json")
	spec := &model.Spec{Architecture: b.Arch, Apps: man.Apps, Mapping: b.SampleMapping(man, benchmarks.MapLoadBalance)}
	if err := model.SaveSpec(path, spec); err != nil {
		t.Fatal(err)
	}
	run := func(drop string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-spec", path, "-drop", drop)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("wcrtcheck -drop %q: %v; stderr:\n%s", drop, err, stderr.String())
		}
		return stdout.String()
	}
	want := run("best0")
	if got := run("best0,"); got != want {
		t.Fatalf("-drop 'best0,' printed\n%s\n-drop best0 printed\n%s", got, want)
	}
}
