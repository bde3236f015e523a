package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files were captured from the pre-facade CLI; these tests pin
// the facade-backed rewrite to byte-identical output.  (disasm40.golden is
// the first 40 lines of the disassembly, as captured with `| head -40`.)
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		lines  int // truncate output to this many lines (0 = all)
	}{
		{"summary.golden", []string{"-bench", "compress", "-mode", "summary", "-max-instructions", "40000"}, 0},
		{"tasks.golden", []string{"-bench", "compress", "-mode", "tasks", "-max-instructions", "40000"}, 0},
		{"deps.golden", []string{"-bench", "compress", "-mode", "deps", "-window", "64", "-max-instructions", "40000"}, 0},
		{"disasm40.golden", []string{"-bench", "compress", "-mode", "disasm"}, 40},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			got := stdout.String()
			if tc.lines > 0 {
				got = strings.Join(strings.SplitAfter(got, "\n")[:tc.lines], "")
			}
			if got != string(want) {
				t.Errorf("output differs from the pre-redesign golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestBadInputsFail pins the error paths.
func TestBadInputsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "no-such-benchmark"},
		{"-mode", "no-such-mode"},
		{"-mode", "deps", "-window", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v: want non-zero exit", args)
		}
	}
}
