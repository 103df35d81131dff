package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestMain lets the test binary stand in for the command: run with
// TRACEGEN_MAIN=1 in its environment, it is tracegen.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWritesReadableTrace runs tracegen -n 1000 and reads the file back
// through internal/trace.
func TestWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.satr")
	cmd := exec.Command(os.Args[0], "-workload", "zipf", "-n", "1000", "-o", path)
	cmd.Env = append(os.Environ(), "TRACEGEN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seq, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1000 {
		t.Fatalf("read %d requests back, want 1000", len(seq))
	}
}
