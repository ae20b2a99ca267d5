package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTraceLimit checks that -limit caps the recorded trace and reports
// the dropped events on stderr, and that a negative -limit is a usage
// error.
func TestTraceLimit(t *testing.T) {
	bin := buildCxlycsb(t)
	trace := filepath.Join(t.TempDir(), "trace.json")
	cmd := exec.Command(bin, slices.Concat(clusterArgs, []string{"-trace", trace, "-limit", "50"})...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "(50 events, ") || !strings.Contains(stderr.String(), "dropped by -limit") {
		t.Fatalf("stderr does not report the limit:\n%s", stderr.Bytes())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("limited trace is not valid JSON")
	}

	var exit *exec.ExitError
	if err := exec.Command(bin, "-limit", "-1").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-limit -1: got %v, want exit status 2", err)
	}
}
