package main

import (
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsOutOfRangeLine: a -line at or past the line count is an
// error reported before any detector is trained, not a panic after.
func TestRunRejectsOutOfRangeLine(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	for _, line := range []int{20, 500} { // ieee14 has 20 lines
		err := run("ieee14", line, 15, 8, true, 0.02, 1, slog.LevelWarn)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("-line %d: got %v, want an out-of-range error", line, err)
		}
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(printed), "training") {
		t.Fatalf("run trained a detector before rejecting the line:\n%s", printed)
	}
}
