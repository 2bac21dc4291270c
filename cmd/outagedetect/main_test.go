package main

import (
	"context"
	"path/filepath"
	"testing"

	"os"
	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 10, Seed: 2, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPatterns(t *testing.T) {
	path := writeDataset(t)
	for _, pattern := range []string{"none", "outage", "random", "cluster"} {
		if err := run(path, pattern, 2, 3, 0.7, 1, "", "", false); err != nil {
			t.Fatalf("pattern %s: %v", pattern, err)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	path := writeDataset(t)
	if err := run(path, "bogus", 2, 3, 0.7, 1, "", "", false); err == nil {
		t.Fatal("expected unknown-pattern error")
	}
	if err := run("/does/not/exist.json", "none", 2, 3, 0.7, 1, "", "", false); err == nil {
		t.Fatal("expected open error")
	}
}

// TestSaveLoadModel: -save-model writes an artifact the -load-model
// path can evaluate without retraining.
func TestSaveLoadModel(t *testing.T) {
	path := writeDataset(t)
	model := filepath.Join(t.TempDir(), "m.json")
	if err := run(path, "none", 2, 3, 0.7, 1, model, "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	if err := run(path, "outage", 2, 3, 0.7, 1, "", model, false); err != nil {
		t.Fatalf("evaluating saved model: %v", err)
	}
	if err := run(path, "none", 2, 3, 0.7, 1, "", "/does/not/exist.model", false); err == nil {
		t.Fatal("expected error for missing model artifact")
	}
}
