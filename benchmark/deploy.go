package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// deployment is one running memdep-server topology: a standalone server, or
// a coordinator fronting two workers.  Clients send every request to url.
type deployment struct {
	name    string   // "direct" or "routed"
	url     string   // standalone server or coordinator
	workers []string // worker base URLs (routed only)
	procs   []*child
}

// startServer starts one memdep-server process on a free loopback port and
// returns its base URL once /v1/healthz answers.  The store is always
// passed explicitly; "" keeps results in memory only.
func (r *run) startServer(ctx context.Context, name, store string, args ...string) (*child, string, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args = append([]string{"-addr", addr, "-store=" + store}, args...)
	c, err := r.sup.start(name, r.serverBin, args...)
	if err != nil {
		return nil, "", err
	}
	url := "http://" + addr
	if err := r.waitReady(ctx, c, url+"/v1/healthz", nil); err != nil {
		r.sup.stop(c)
		return nil, "", err
	}
	return c, url, nil
}

// startDirect starts a standalone server sized to the machine.
func (r *run) startDirect(ctx context.Context, store string) (*deployment, error) {
	c, url, err := r.startServer(ctx, "standalone", store, "-jobs", strconv.Itoa(r.procs))
	if err != nil {
		return nil, err
	}
	return &deployment{name: "direct", url: url, procs: []*child{c}}, nil
}

// startFleet starts a coordinator and two single-job workers with fixed
// names, so rendezvous routing is the same on every run, and returns once
// the coordinator reports both workers healthy.
func (r *run) startFleet(ctx context.Context, stores [2]string) (*deployment, error) {
	d := &deployment{name: "routed"}
	coord, url, err := r.startServer(ctx, "coordinator", "", "-role", "coordinator", "-heartbeat", "500ms")
	if err != nil {
		return nil, err
	}
	d.url = url
	d.procs = append(d.procs, coord)
	for i, store := range stores {
		name := "w" + strconv.Itoa(i+1)
		w, wurl, err := r.startServer(ctx, name, store, "-role", "worker", "-coordinator", url,
			"-name", name, "-jobs", "1", "-heartbeat", "500ms")
		if err != nil {
			r.stopDeployment(d)
			return nil, err
		}
		d.procs = append(d.procs, w)
		d.workers = append(d.workers, wurl)
	}
	bothHealthy := func(body []byte) bool {
		var ws struct {
			Healthy int `json:"healthy"`
		}
		return json.Unmarshal(body, &ws) == nil && ws.Healthy == len(stores)
	}
	if err := r.waitReady(ctx, coord, url+"/v1/fleet/workers", bothHealthy); err != nil {
		r.stopDeployment(d)
		return nil, err
	}
	return d, nil
}

// waitReady polls url until it answers 200 with a body ready accepts (nil
// accepts any), the process dies, or ten seconds pass.
func (r *run) waitReady(ctx context.Context, c *child, url string, ready func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body, err := r.get(ctx, url)
		if err == nil && status == http.StatusOK && (ready == nil || ready(body)) {
			return nil
		}
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case c.exited():
			return fmt.Errorf("%s exited before it was ready: %s", c.name, c.logTail())
		case time.Now().After(deadline):
			return fmt.Errorf("%s not ready at %s after 10s: %s", c.name, url, c.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// stopDeployment kills every process of d and drops the client's idle
// connections to it.
func (r *run) stopDeployment(d *deployment) {
	for _, c := range d.procs {
		r.sup.stop(c)
	}
	r.transport.CloseIdleConnections()
}

// peakRSS returns the largest high-water resident set among the
// deployments' processes.
func peakRSS(ds ...*deployment) (float64, error) {
	var peak float64
	for _, d := range ds {
		for _, c := range d.procs {
			mb, err := peakRSSMB(c)
			if err != nil {
				return 0, err
			}
			peak = max(peak, mb)
		}
	}
	return peak, nil
}

// get issues a GET and returns the status and body.
func (r *run) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return r.do(req)
}

// post issues a JSON POST and returns the status and body.
func (r *run) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.do(req)
}

func (r *run) do(req *http.Request) (int, []byte, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// statz is the part of a standalone server's or worker's GET /v1/statz the
// benchmark reads.
type statz struct {
	Stats struct {
		Executed   uint64 `json:"executed"`
		Hits       uint64 `json:"hits"`
		CachedJobs int    `json:"cached_jobs"`
	} `json:"stats"`
}

// coordStatz is the part of a coordinator's GET /v1/statz the benchmark
// reads.
type coordStatz struct {
	Workers []struct {
		Routed uint64 `json:"routed"`
	} `json:"workers"`
	Rerouted uint64 `json:"rerouted"`
}

// getJSON decodes a GET response into v.
func (r *run) getJSON(ctx context.Context, url string, v any) error {
	status, body, err := r.get(ctx, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, status)
	}
	return json.Unmarshal(body, v)
}

// gridResult is one streamed grid: each cell's raw result document by index
// and the times to the first cell and to the end of the stream.
type gridResult struct {
	cells  [][]byte
	failed int
	first  time.Duration
	wall   time.Duration
}

// streamGrid posts a grid asking for NDJSON and reads it to the summary.
func (r *run) streamGrid(ctx context.Context, url string, body []byte, cells int) (gridResult, error) {
	g := gridResult{cells: make([][]byte, cells)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		return g, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return g, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return g, fmt.Errorf("grid returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 16<<20)
	summary := false
	for sc.Scan() {
		var line struct {
			Index   *int            `json:"index"`
			Result  json.RawMessage `json:"result"`
			Error   string          `json:"error"`
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return g, fmt.Errorf("bad grid line %q: %w", sc.Bytes(), err)
		}
		switch {
		case line.Summary != nil:
			summary = true
		case line.Index == nil || *line.Index < 0 || *line.Index >= cells:
			return g, fmt.Errorf("grid line without a valid index: %q", sc.Bytes())
		case line.Error != "" || line.Result == nil:
			g.failed++
		default:
			if g.first == 0 {
				g.first = time.Since(start)
			}
			g.cells[*line.Index] = line.Result
		}
	}
	g.wall = time.Since(start)
	if err := sc.Err(); err != nil {
		return g, err
	}
	if !summary {
		return g, errors.New("grid stream ended without a summary")
	}
	return g, nil
}
