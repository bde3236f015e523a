package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memdep/sim"
)

// fakeServer implements just enough of the memdep-server API for load
// tests: instant canned results, real NDJSON streaming.
func fakeServer(t *testing.T, simulateStatus int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		if simulateStatus != http.StatusOK {
			w.WriteHeader(simulateStatus)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"cycles": 123}`)
	})
	mux.HandleFunc("POST /v1/grid", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Requests []sim.Request `json:"requests"`
			Stream   bool          `json:"stream"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !req.Stream {
			t.Errorf("grid request not streamed: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := range req.Requests {
			line := fmt.Sprintf(`{"index":%d,"result":{"cycles":123}}`, i)
			if req.Requests[i].Stages == 64 { // the error-injection marker
				line = fmt.Sprintf(`{"index":%d,"error":"boom"}`, i)
			}
			fmt.Fprintln(w, line)
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
		fmt.Fprintf(w, `{"summary":{"cells":%d,"ok":%d}}`+"\n", len(req.Requests), len(req.Requests))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func runLoad(t *testing.T, args ...string) (report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, stdout.String())
	}
	return rep, stderr.String()
}

func TestGridMode(t *testing.T) {
	ts := fakeServer(t, http.StatusOK)
	rep, _ := runLoad(t, "-mode", "grid", "-cells", "16", "-target", "a="+ts.URL)
	if rep.Mode != "grid" || rep.Cells != 16 || rep.HostCPUs < 1 {
		t.Fatalf("report header = %+v", rep)
	}
	if len(rep.Targets) != 1 {
		t.Fatalf("targets = %+v", rep.Targets)
	}
	tr := rep.Targets[0]
	if tr.OK != 16 || tr.Errors != 0 {
		t.Errorf("ok=%d errors=%d, want 16/0", tr.OK, tr.Errors)
	}
	if tr.FirstCellMS <= 0 || tr.FirstCellMS > tr.WallMS {
		t.Errorf("first_cell_ms=%v wall_ms=%v", tr.FirstCellMS, tr.WallMS)
	}
	if tr.Throughput <= 0 || tr.ThroughputVsFirst != 1 {
		t.Errorf("throughput=%v ratio=%v", tr.Throughput, tr.ThroughputVsFirst)
	}
}

func TestSimulateMode(t *testing.T) {
	ts := fakeServer(t, http.StatusOK)
	rep, _ := runLoad(t, "-mode", "simulate", "-requests", "24", "-concurrency", "4", "-target", "a="+ts.URL)
	tr := rep.Targets[0]
	if tr.OK != 24 || tr.Errors != 0 {
		t.Errorf("ok=%d errors=%d, want 24/0", tr.OK, tr.Errors)
	}
	if tr.Latency == nil || tr.Latency.P50 <= 0 || tr.Latency.P99 < tr.Latency.P50 || tr.Latency.Max < tr.Latency.P99 {
		t.Errorf("latency = %+v", tr.Latency)
	}
}

func TestSimulateModeCountsErrors(t *testing.T) {
	ts := fakeServer(t, http.StatusInternalServerError)
	rep, _ := runLoad(t, "-mode", "simulate", "-requests", "8", "-target", "a="+ts.URL)
	if tr := rep.Targets[0]; tr.Errors != 8 || tr.OK != 0 {
		t.Errorf("ok=%d errors=%d, want 0/8", tr.OK, tr.Errors)
	}
}

func TestMultipleTargetsComputeRatio(t *testing.T) {
	a := fakeServer(t, http.StatusOK)
	b := fakeServer(t, http.StatusOK)
	rep, _ := runLoad(t, "-mode", "grid", "-cells", "8",
		"-target", "baseline="+a.URL, "-target", "fleet="+b.URL)
	if len(rep.Targets) != 2 {
		t.Fatalf("targets = %+v", rep.Targets)
	}
	if rep.Targets[0].ThroughputVsFirst != 1 {
		t.Errorf("baseline ratio = %v, want 1", rep.Targets[0].ThroughputVsFirst)
	}
	if rep.Targets[1].ThroughputVsFirst <= 0 {
		t.Errorf("fleet ratio = %v, want > 0", rep.Targets[1].ThroughputVsFirst)
	}
	if rep.Targets[0].Name != "baseline" || rep.Targets[1].Name != "fleet" {
		t.Errorf("target names = %q, %q", rep.Targets[0].Name, rep.Targets[1].Name)
	}
}

func TestBothMode(t *testing.T) {
	a := fakeServer(t, http.StatusOK)
	b := fakeServer(t, http.StatusOK)
	rep, _ := runLoad(t, "-mode", "both", "-cells", "4", "-requests", "6",
		"-target", "baseline="+a.URL, "-target", "fleet="+b.URL)
	if len(rep.Targets) != 4 {
		t.Fatalf("got %d target entries, want 2 targets x 2 modes", len(rep.Targets))
	}
	byKey := map[string]targetReport{}
	for _, tr := range rep.Targets {
		byKey[tr.Name+"/"+tr.Mode] = tr
	}
	for _, key := range []string{"baseline/grid", "baseline/simulate", "fleet/grid", "fleet/simulate"} {
		if _, ok := byKey[key]; !ok {
			t.Fatalf("missing entry %s in %+v", key, rep.Targets)
		}
	}
	if byKey["baseline/grid"].ThroughputVsFirst != 1 || byKey["baseline/simulate"].ThroughputVsFirst != 1 {
		t.Errorf("baseline ratios not 1: %+v", rep.Targets)
	}
	if byKey["fleet/simulate"].Latency == nil || byKey["fleet/grid"].FirstCellMS <= 0 {
		t.Errorf("mode-specific fields missing: %+v", rep.Targets)
	}
}

func TestOutFlagWritesFile(t *testing.T) {
	ts := fakeServer(t, http.StatusOK)
	path := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	if code := run([]string{"-mode", "grid", "-cells", "4", "-target", "a=" + ts.URL, "-out", path},
		&bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("run = %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad file JSON: %v", err)
	}
	if rep.Targets[0].OK != 4 {
		t.Errorf("file report = %+v", rep)
	}
}

func TestBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-mode", "nope"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("bad -mode exit = %d, want 2", code)
	}
	if code := run([]string{"-target", "missing-equals"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("bad -target exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "NAME=URL") {
		t.Errorf("stderr missing -target usage hint: %s", stderr.String())
	}
}

func TestUnreachableTargetFails(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-mode", "grid", "-cells", "2", "-timeout", "2s",
		"-target", "down=http://127.0.0.1:1"}, &bytes.Buffer{}, &stderr)
	if code != 1 {
		t.Errorf("unreachable target exit = %d, want 1", code)
	}
}

// TestFlagSurface checks the full advertised flag surface parses and is
// echoed into the report.
func TestFlagSurface(t *testing.T) {
	ts := fakeServer(t, http.StatusOK)
	rep, _ := runLoad(t,
		"-mode", "grid", "-cells", "4", "-requests", "4", "-concurrency", "2",
		"-ops", "1000", "-seed", "42", "-timeout", "1m", "-target", "a="+ts.URL)
	if rep.Seed != 42 || rep.Ops != 1000 {
		t.Errorf("report did not echo flags: %+v", rep)
	}
}
