package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// -update rewrites testdata/*.golden from the current code. Regenerate
// only after an intentional output change (see `make golden`).
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// buildCxlycsb builds the command into a temporary directory.
func buildCxlycsb(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the full binary")
	}
	bin := filepath.Join(t.TempDir(), "cxlycsb")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runLocked runs cxlycsb with args in a fresh temporary directory and
// returns the command line, the sha256 of each named output file and
// stdout as one text. Output paths in args are relative, so they land in
// that directory and the command line is the same on every run. Traces
// and dumps run to megabytes, so only their digests are kept.
func runLocked(t *testing.T, bin string, args []string, files ...string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cxlycsb %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$ cxlycsb %s\n", strings.Join(args, " "))
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "sha256 %s %x\n", name, sha256.Sum256(data))
	}
	b.Write(out)
	return b.String()
}

// runTraced runs cxlycsb with args plus -trace and -metrics files, as
// runLocked does.
func runTraced(t *testing.T, bin string, args ...string) string {
	t.Helper()
	return runLocked(t, bin, slices.Concat(args, []string{"-trace", "trace.json", "-metrics", "metrics.prom"}),
		"trace.json", "metrics.prom")
}

// clusterArgs is the sharded multi-node run both tests below use.
var clusterArgs = []string{"-config", "1:1", "-workload", "B", "-ops", "20000", "-nodes", "4"}

// TestGolden locks cxlycsb's outputs against those recorded in
// testdata/: stdout, trace and metrics for a single-node tiering run and
// a sharded cluster run, and stdout and the windowed dump for a run with
// a durable spill tier. That run's metrics file is not locked: it
// carries the wall-clock spill recovery time, which the windowed dump
// leaves out.
func TestGolden(t *testing.T) {
	bin := buildCxlycsb(t)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"hotpromote-a", func(t *testing.T) string {
			return runTraced(t, bin, "-config", "Hot-Promote", "-workload", "A", "-ops", "8000")
		}},
		{"cluster-b", func(t *testing.T) string { return runTraced(t, bin, clusterArgs...) }},
		{"spill-dump", func(t *testing.T) string {
			return runLocked(t, bin, []string{"-config", "MMEM-SSD-0.2", "-ops", "4000",
				"-spill-dir", "spill", "-dump", "dump"}, "dump-healthy.json")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", tc.name+".golden"), tc.run(t))
		})
	}
}

// TestClusterShardInvariant requires byte-identical stdout, trace and
// metrics at any -shards value: the shard count is an execution detail,
// so no process-global observer may leak shard scheduling into the
// outputs.
func TestClusterShardInvariant(t *testing.T) {
	bin := buildCxlycsb(t)
	// Drop the first line, the command, which names the -shards value.
	run := func(n string) string {
		_, out, _ := strings.Cut(runTraced(t, bin, slices.Concat(clusterArgs, []string{"-shards", n})...), "\n")
		return out
	}
	want := run("1")
	for _, n := range []string{"2", "8"} {
		got := run(n)
		if got != want {
			t.Fatalf("-shards %s differs from -shards 1:\n%s", n, firstDiff(got, want))
		}
	}
}

// checkGolden compares body against the golden file at path, or rewrites
// it under -update. The first line records the GOARCH the golden was made
// on: Go fuses multiply-adds into FMA instructions on arm64 but not on
// amd64, so float results, and the text printed from them, may differ in
// the last digit across architectures. Elsewhere the test skips.
func checkGolden(t *testing.T, path, body string) {
	t.Helper()
	header := "GOARCH " + runtime.GOARCH
	if *update {
		if err := os.WriteFile(path, []byte(header+"\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantHeader, wantBody, _ := strings.Cut(string(want), "\n")
	if wantHeader != header {
		t.Skipf("%s was recorded with %q; this is GOARCH %s", path, wantHeader, runtime.GOARCH)
	}
	if body != wantBody {
		t.Fatalf("output differs from %s; run `make golden` if the change is intentional\n%s",
			path, firstDiff(body, wantBody))
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of output>"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, line(g, i), line(w, i))
}
