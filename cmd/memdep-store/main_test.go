package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memdep/internal/store"
	"memdep/sim"
)

// seedStore runs a tiny simulation grid against dir so the store holds real
// objects of every persisted kind.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	s := sim.NewSession(sim.WithStore(dir))
	spec := &sim.SynthSpec{Seed: 5, Ops: 2048}
	_, err := s.RunGrid(context.Background(), []sim.Request{
		{Synth: spec, Stages: 4, Policy: sim.PolicyAlways},
		{Synth: spec, Stages: 4, Policy: sim.PolicyESync},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageAndBadSubcommand(t *testing.T) {
	if code, _, stderr := runCmd(t); code != 2 || !strings.Contains(stderr, "Subcommands") {
		t.Fatalf("no args: code=%d stderr=%q", code, stderr)
	}
	if code, _, _ := runCmd(t, "frobnicate"); code != 2 {
		t.Fatal("unknown subcommand must exit 2")
	}
	if code, out, _ := runCmd(t, "help"); code != 0 || !strings.Contains(out, "gc") {
		t.Fatalf("help: code=%d out=%q", code, out)
	}
}

func TestMissingStoreDir(t *testing.T) {
	t.Setenv("MEMDEP_STORE", "")
	for _, sub := range []string{"stats", "gc", "verify"} {
		if code, _, stderr := runCmd(t, sub); code != 2 || !strings.Contains(stderr, "MEMDEP_STORE") {
			t.Fatalf("%s without a dir: code=%d stderr=%q", sub, code, stderr)
		}
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	code, out, stderr := runCmd(t, "stats", "-store", dir)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	for _, want := range []string{"objects", "multiscalar-simulate", "multiscalar-preprocess"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// Synthetic programs are rebuilt, not persisted.
	if strings.Contains(out, "synth-build") {
		t.Errorf("stats output lists synth-build objects:\n%s", out)
	}

	// -json is machine-readable and agrees with the package walk.
	code, out, _ = runCmd(t, "stats", "-store", dir, "-json")
	if code != 0 {
		t.Fatal("stats -json failed")
	}
	var u store.DiskUsage
	if err := json.Unmarshal([]byte(out), &u); err != nil {
		t.Fatalf("stats -json not JSON: %v\n%s", err, out)
	}
	want, err := store.Usage(dir)
	if err != nil || u.Objects != want.Objects || u.Bytes != want.Bytes {
		t.Fatalf("json usage %+v, want %+v (err %v)", u, want, err)
	}

	// The env default stands in for -store.
	t.Setenv("MEMDEP_STORE", dir)
	if code, _, _ := runCmd(t, "stats"); code != 0 {
		t.Fatal("stats via MEMDEP_STORE failed")
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	if code, _, stderr := runCmd(t, "gc", "-store", dir); code != 2 || !strings.Contains(stderr, "-max-bytes") {
		t.Fatalf("gc without -max-bytes: code=%d stderr=%q", code, stderr)
	}
	code, out, _ := runCmd(t, "gc", "-store", dir, "-max-bytes", "0", "-json")
	if code != 0 {
		t.Fatalf("gc failed:\n%s", out)
	}
	var res store.GCResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kept != 0 || res.Evicted == 0 {
		t.Fatalf("gc to zero = %+v", res)
	}
	if u, _ := store.Usage(dir); u.Objects != 0 {
		t.Fatalf("%d objects survived gc to zero", u.Objects)
	}
}

func TestVerify(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	code, out, _ := runCmd(t, "verify", "-store", dir)
	if code != 0 || !strings.Contains(out, "checked") {
		t.Fatalf("clean verify: code=%d\n%s", code, out)
	}

	// Damage one object: verify fails, -delete repairs.
	var victim string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatalf("no object to damage: %v", err)
	}
	if err := os.WriteFile(victim, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCmd(t, "verify", "-store", dir)
	if code != 1 || !strings.Contains(out, "bad") || !strings.Contains(stderr, "failed validation") {
		t.Fatalf("damaged verify: code=%d\n%s\n%s", code, out, stderr)
	}
	if code, _, _ := runCmd(t, "verify", "-store", dir, "-delete"); code != 1 {
		t.Fatal("verify -delete must still exit 1 on the pass that found damage")
	}
	if code, _, _ := runCmd(t, "verify", "-store", dir); code != 0 {
		t.Fatal("store not clean after verify -delete")
	}
}
