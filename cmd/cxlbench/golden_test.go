package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// -update rewrites testdata/*.golden from the current code. Regenerate
// only after an intentional output change (see `make golden`).
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// TestGolden locks cxlbench's stdout byte for byte against outputs
// recorded in testdata/. Unlike core's TestRunAllDeterministic, which
// compares two runs of one binary, this catches a refactor that changes
// every run the same way.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full binary")
	}
	bin := filepath.Join(t.TempDir(), "cxlbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"quick-all", []string{"-quick", "all"}},
		{"quick-all-csv", []string{"-quick", "-format", "csv", "all"}},
		{"quick-all-faults", []string{"-quick", "-faults", "../../examples/degrade-cxl.json", "all"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("cxlbench %s: %v\n%s", strings.Join(tc.args, " "), err, stderr.Bytes())
			}
			body := fmt.Sprintf("$ cxlbench %s\n%s", strings.Join(tc.args, " "), out)
			checkGolden(t, filepath.Join("testdata", tc.name+".golden"), body)
		})
	}
}

// checkGolden compares body against the golden file at path, or rewrites
// it under -update. The first line records the GOARCH the golden was made
// on: Go fuses multiply-adds into FMA instructions on arm64 but not on
// amd64, so float results, and the tables printed from them, may differ
// in the last digit across architectures. Elsewhere the test skips.
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
