package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"duplo/internal/server"
)

// daemon is a duploserved process started with its default flags, apart
// from the store, the simulated scale the store was filled at, the
// cluster seed and a free port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	stderr bytes.Buffer
	done   chan error
}

// startDaemon boots bin/duploserved over storeDir and waits until
// /healthz answers.
func startDaemon(bin, storeDir string, sc scale, seed int64) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(bin, "duploserved"),
		"-addr", "127.0.0.1:0", "-store", storeDir,
		"-ctas", fmt.Sprint(sc.CTAs), "-sms", fmt.Sprint(sc.SMs), "-seed", fmt.Sprint(seed))
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = dieWithParent()
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start duploserved: %w", err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	go func() { d.done <- d.cmd.Wait() }()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "duploserved listening on ")
	if err != nil || !ok {
		d.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("duploserved did not report its address (%q, %v): %s", line, err, d.stderr.String())
	}
	d.base = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("duploserved never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit, and returns its peak
// resident set in MB.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
	select {
	case err := <-d.done:
		if err != nil {
			return 0, fmt.Errorf("duploserved exited: %v: %s", err, d.stderr.String())
		}
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // wait below reaps it
		<-d.done
		return 0, fmt.Errorf("duploserved ignored SIGTERM")
	}
	return peakRSSMB(d.cmd), nil
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first (a timeout kill, say), so no daemon outlives a run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB reads a finished child's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// statsz fetches the daemon's counters.
func (d *daemon) statsz() (server.StatsZ, error) {
	var st server.StatsZ
	resp, err := http.Get(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
