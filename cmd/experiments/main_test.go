package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command itself, so a test
// can re-execute it with command-line arguments and observe its
// output streams.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutDeterministic checks that two runs of one subcommand print
// byte-identical stdout: the wall-time line goes to stderr only.
func TestStdoutDeterministic(t *testing.T) {
	run := func() (string, string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-quick", "motivation")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments -quick motivation: %v; stderr:\n%s", err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	out1, err1 := run()
	out2, _ := run()
	if out1 != out2 {
		t.Errorf("stdout differs between two runs:\n--- run 1\n%s\n--- run 2\n%s", out1, out2)
	}
	if strings.Contains(out1, "finished in") {
		t.Errorf("stdout carries the wall time:\n%s", out1)
	}
	if !strings.Contains(err1, "[motivation finished in ") {
		t.Errorf("stderr lacks the wall-time line:\n%s", err1)
	}
}
