package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The golden files were captured from the pre-facade CLI (flag→config
// assembly by hand); these tests pin the facade-backed rewrite to
// byte-identical output.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"single.golden", []string{"-bench", "compress", "-stages", "8", "-policy", "ESYNC", "-max-instructions", "40000"}},
		{"grid.golden", []string{"-bench", "compress", "-stages", "4,8", "-policy", "ALWAYS,ESYNC", "-max-instructions", "40000", "-jobs", "1"}},
		{"setassoc.golden", []string{"-bench", "sc", "-stages", "8", "-policy", "SYNC", "-predictor", "setassoc", "-mdpt-ways", "2", "-max-instructions", "40000"}},
		{"list.golden", []string{"-list"}},
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
			if stdout.String() != string(want) {
				t.Errorf("output differs from the pre-redesign golden\n--- got ---\n%s\n--- want ---\n%s",
					stdout.String(), want)
			}
		})
	}
}

// TestBadFlagsFail pins the error paths.
func TestBadFlagsFail(t *testing.T) {
	cases := [][]string{
		{"-bench", "no-such-benchmark"},
		{"-policy", "SOMETIMES"},
		{"-stages", "eight"},
		{"-predictor", "cam"},
		{"-bench", "compress", "-synth"},
		{"-synth-dist", "bogus"},
		{"-synth-ops", "-4"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v: want non-zero exit", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("args %v: no error message", args)
		}
	}
}
