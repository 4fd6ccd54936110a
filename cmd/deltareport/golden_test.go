package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	wallRe = regexp.MustCompile(`wall=[0-9.]+ms`)
	utilRe = regexp.MustCompile(`util%=[0-9/]+`)
	goRe   = regexp.MustCompile(`(?m)^go        \S+$`)
)

func normalizeMetrics(b []byte) []byte {
	b = wallRe.ReplaceAll(b, []byte("wall=<dur>"))
	b = utilRe.ReplaceAll(b, []byte("util%=<util>"))
	b = goRe.ReplaceAll(b, []byte("go        <version>"))
	return b
}

// TestMetricsGolden pins deltareport's -metrics section for a small pinned
// end-to-end run: the full span set (simulation plus all three pipeline
// stages), the sim.* counters and gauges, and the run manifest with its
// embedded pipeline config. Wall times, utilization, and the toolchain
// version are normalized. Regenerate with:
//
//	go test ./cmd/deltareport -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-scale", "0.02", "-workers", "2", "-quiet", "-metrics"},
		&out, io.Discard); err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(out.Bytes(), []byte("=== Metrics ==="))
	if idx < 0 {
		t.Fatalf("no metrics section in output:\n%s", out.String())
	}
	got := normalizeMetrics(out.Bytes()[idx:])

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics section diverges from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestFullScaleGolden reruns the paper-scale reproduction that `make
// report` prints (-scale 1.0 -seed 2 -compare -ext) and diffs it byte for
// byte against the committed results_full_scale.txt, the only golden at
// the scale where scheduler, health monitor and faulty-GPU burst behave as
// in the paper. The run takes seconds and about 1 GB, so -short skips it.
// Change the file only on purpose, explaining the diff, with:
//
//	go test ./cmd/deltareport -run TestFullScaleGolden -update
func TestFullScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	var out bytes.Buffer
	if err := run([]string{"-scale", "1.0", "-seed", "2", "-compare", "-ext"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "results_full_scale.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("%s diverges at line %d (rerun with -update if intended):\n got %q\nwant %q",
					golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s diverges: %d lines, want %d (rerun with -update if intended)", golden, len(gotLines), len(wantLines))
	}
}
