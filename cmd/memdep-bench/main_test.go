package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memdep/sim"
)

// The golden files were captured from the pre-facade CLI; these tests pin
// the facade-backed rewrite to byte-identical output.  (The default text
// mode prints wall-clock timings, so the goldens use -csv and -list.)
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table3.csv.golden", []string{"-quick", "-csv", "-experiment", "table3", "-jobs", "1"}},
		{"figure6.csv.golden", []string{"-quick", "-csv", "-experiment", "figure6", "-jobs", "1"}},
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

// TestMarkdownMode checks the -md path writes the EXPERIMENTS.md shape.
func TestMarkdownMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-experiment", "table6", "-md", path, "-jobs", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{"# EXPERIMENTS", "-quick", "## table6", "```"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("markdown output missing %q:\n%s", want, md)
		}
	}
}

// TestSweepReproducesExperimentsFile holds every experiment to the committed
// EXPERIMENTS.md three ways: run side by side through the CLI at 1 and at 4
// jobs, and run one at a time through RunExperiment.
func TestSweepReproducesExperimentsFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-jobs", jobs, "-md", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("-jobs %s: exit code %d, stderr: %s", jobs, code, stderr.String())
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("-jobs %s: the side-by-side sweep differs from EXPERIMENTS.md (%v)", jobs, err)
		}
	}

	opts := sim.SuiteOptions{Quick: true, MDPTEntries: 64, Predictor: sim.TableFullAssoc}
	var md strings.Builder
	writeMarkdownHeader(&md, opts)
	session := sim.NewSession(sim.WithWorkers(1))
	for _, e := range sim.Experiments() {
		tab, err := session.RunExperiment(context.Background(), e.ID, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		writeMarkdownTable(&md, e, tab)
	}
	if md.String() != string(want) {
		t.Error("the experiments run one at a time differ from EXPERIMENTS.md")
	}
}

// TestUnknownExperimentFails pins the error path.
func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "table99"}, &stdout, &stderr); code == 0 {
		t.Error("unknown experiment must fail")
	}
	if !bytes.Contains(stderr.Bytes(), []byte("-list")) {
		t.Errorf("error should point at -list: %s", stderr.String())
	}
}
