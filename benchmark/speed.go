package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The 2-vCPU host this benchmark was written on runs everything up to 2×
// slower for seconds to minutes at a time, because of load outside the
// container.  Process CPU time inflates with wall time, and even the
// fastest 15 s window of a fixed computation drifts by 10% over a few
// minutes, so raw medians spread by 10-44% from run to run.  Each run
// therefore also measures the machine: before every operation or slice of
// operations, while the servers are idle, it times a fixed reference task
// that does not touch memdep's code.  The run's slowdown is the median of
// those times over refMs, and the end-to-end timings are divided by the
// slowdown raised to elasticity.  Of the references tried over the same 40
// runs -- CPU work with and without allocation, loopback HTTP round trips
// -- the geometric mean of allocating CPU work and HTTP round trips tracked
// every workload best: it cut the worst spread from 17% to under 10%.

// refMs is the reference task's time at the reference speed: its median
// over the 40 runs that chose it.
const refMs = 0.91

// elasticity is how much of the reference task's slowdown memdep's
// timings show.  Over 40 runs of each workload, in four sets on different
// seeds, log timing against log slowdown had slopes of 0.63 to 0.99, most
// between 0.7 and 0.9.  Dividing by the full slowdown over-corrected: in
// a set where the host ran 1.4× slow, simulate-cold spread by 22%, and by
// 11% with this exponent.
const elasticity = 0.75

// reference is the CPU half of the reference task: sorting, map updates,
// JSON encoding and hashing, allocating as memdep's code does.
func reference() byte {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]uint64, 1<<14)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	slices.Sort(xs)
	m := make(map[uint64]int, 1024)
	for i, x := range xs {
		m[x%4093] += i
	}
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // a map of ints always encodes
	}
	sum := sha256.Sum256(data)
	return sum[0]
}

// echoDoc is the HTTP half's request body: an indented JSON document the
// size of a simulation result.
var echoDoc = func() []byte {
	m := map[string]any{}
	for i := 0; i < 60; i++ {
		m[fmt.Sprintf("field_%02d", i)] = []any{i, float64(i) / 7, "some text value", true}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain values always encode
	}
	return data
}()

// echo decodes a JSON body and writes it back indented, as memdep-server
// does with requests and results.
func echo(w http.ResponseWriter, req *http.Request) {
	var v map[string]any
	if err := json.NewDecoder(req.Body).Decode(&v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the probe reads whatever arrives
}

// speedometer times the reference task.
type speedometer struct {
	echo  *httptest.Server // the HTTP half's loopback server, in this process
	times []float64        // ms, one per probe
}

func newSpeedometer() *speedometer {
	return &speedometer{echo: httptest.NewServer(http.HandlerFunc(echo))}
}

func (s *speedometer) close() { s.echo.Close() }

// probe runs the reference task once: the CPU half on every CPU at once
// (median of three), then 16 loopback round trips (median), and records
// the geometric mean of the two.  It first flushes dirty pages (a store's
// write-behind) and collects this process's garbage (replies, in-process
// spot checks), so that work left over from memdep's operations does not
// slow the probe and is not divided away from memdep's timings.
func (s *speedometer) probe(procs int, client *http.Client) error {
	syscall.Sync()
	runtime.GC()
	var cpu [3]float64
	out := make([]byte, procs)
	for k := range cpu {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = reference()
			}()
		}
		wg.Wait()
		cpu[k] = ms(time.Since(start))
	}
	var trips [16]float64
	for k := range trips {
		start := time.Now()
		resp, err := client.Post(s.echo.URL, "application/json", bytes.NewReader(echoDoc))
		if err != nil {
			return fmt.Errorf("reference round trip: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reference round trip: %w", err)
		}
		trips[k] = ms(time.Since(start))
	}
	s.times = append(s.times, math.Sqrt(median(cpu[:])*median(trips[:])))
	return nil
}

// slowdown returns how much slower than the reference speed the machine ran
// over the run.
func (s *speedometer) slowdown() float64 { return median(s.times) / refMs }

// scale returns the factor the run's timings are divided by, and its rates
// multiplied by.
func (s *speedometer) scale() float64 { return math.Pow(s.slowdown(), elasticity) }

// probe times the reference task once, between operations.
func (r *run) probe() error { return r.speed.probe(r.procs, r.client) }
