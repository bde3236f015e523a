package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process the benchmark started.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string        // file holding the process's standard error
	done chan struct{} // closed once Wait has returned
}

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the process's standard error, for error
// messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.log)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return strings.TrimSpace(string(data))
}

// supervisor starts child processes and guarantees they end: each child
// runs in its own process group, which stop kills as a whole, and the
// kernel kills any child whose parent dies first.  A failed run therefore
// cannot leave servers behind holding memory.
type supervisor struct {
	dir string   // where child logs go
	env []string // child environment

	mu sync.Mutex
	//memdep:guardedby mu
	live map[*child]bool
	//memdep:guardedby mu
	seq int
}

// newSupervisor prepares the child environment: $MEMDEP_STORE is removed, so
// no child silently reads a store the benchmark did not pass with -store,
// and GOMAXPROCS is pinned to the benchmark's CPU count.
func newSupervisor(dir string, procs int) *supervisor {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "MEMDEP_STORE=") || strings.HasPrefix(kv, "GOMAXPROCS=") {
			continue
		}
		env = append(env, kv)
	}
	env = append(env, "GOMAXPROCS="+strconv.Itoa(procs))
	return &supervisor{dir: dir, env: env, live: make(map[*child]bool)}
}

// start launches bin in its own process group with standard error logged to
// a file.
func (s *supervisor) start(name, bin string, args ...string) (*child, error) {
	s.mu.Lock()
	s.seq++
	logPath := filepath.Join(s.dir, fmt.Sprintf("%03d-%s.log", s.seq, name))
	s.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = s.env
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	s.mu.Lock()
	s.live[c] = true
	s.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

// stop kills the child's process group and waits for the child to end.  A
// child already reaped is not signalled: its pid may have been reused.
func (s *supervisor) stop(c *child) {
	if !c.exited() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH if it just exited
	}
	<-c.done
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
}

// stopAll stops every child still running.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	var cs []*child
	for c := range s.live { //lint:deterministic every child is stopped; order is irrelevant
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		s.stop(c)
	}
}

// runOnce runs bin to completion and returns its wall time, its peak
// resident set (rusage maxrss, in MB) and its standard error.  Cancelling
// ctx kills it.
func (s *supervisor) runOnce(ctx context.Context, name, bin string, args ...string) (time.Duration, float64, string, error) {
	start := time.Now()
	c, err := s.start(name, bin, args...)
	if err != nil {
		return 0, 0, "", err
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		s.stop(c)
		return 0, 0, "", ctx.Err()
	}
	wall := time.Since(start)
	s.stop(c) // only forgets it: it has exited
	log, err := os.ReadFile(c.log)
	if err != nil {
		return 0, 0, "", err
	}
	if err := os.Remove(c.log); err != nil {
		return 0, 0, "", err
	}
	st := c.cmd.ProcessState
	if !st.Success() {
		return 0, 0, "", fmt.Errorf("%s: %v: %s", name, st, log)
	}
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, "", errors.New("no rusage for " + name)
	}
	return wall, float64(ru.Maxrss) / 1024, string(log), nil
}

// peakRSSMB reads a live process's high-water resident set (VmHWM) in MB.
func peakRSSMB(c *child) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(v)), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM for %s", c.name)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
