package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nl2cm"
)

// daemon is one nl2cmd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once
}

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clockTicks = 100

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the daemon with the flags and waits until it
// answers HTTP. Its log goes to logPath.
func startDaemon(bin string, flags []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if this process dies first, so an
	// interrupted run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/api/backends")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			return nil, fmt.Errorf("daemon exited during start: %v (log %s)", werr, logPath)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 20s (log %s)", logPath)
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10 s) and
// reaps it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// procStat returns the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(data)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in
// MiB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal returns the machine's cumulative steal and total CPU ticks
// (/proc/stat): time a hypervisor ran other guests while this one
// wanted the CPU. Printed beside each run, it explains noisy figures.
func hostSteal() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// serverStats mirrors the parts of /api/stats the benchmark reads.
type serverStats struct {
	PlanCache *nl2cm.PlanCacheStats `json:"plan_cache"`
	Admission struct {
		Admitted  int64 `json:"admitted"`
		Rejected  int64 `json:"rejected"`
		AvgWaitNs int64 `json:"avg_wait_ns"`
	} `json:"admission"`
	Crowd nl2cm.EngineStats `json:"crowd"`
	Store struct {
		Epoch   uint64 `json:"epoch"`
		Triples int    `json:"triples"`
	} `json:"store"`
}

func (d *daemon) stats() (*serverStats, error) {
	resp, err := http.Get(d.base + "/api/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /api/stats: %w", err)
	}
	return &st, nil
}

// storeResponse is POST /api/store's reply.
type storeResponse struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Epoch   uint64 `json:"epoch"`
}

// postStore applies one insert/delete batch through the daemon.
func postStore(c *http.Client, base, insert, del string) (*storeResponse, error) {
	body, err := json.Marshal(map[string]string{"insert": insert, "delete": del})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/api/store", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /api/store: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var sr storeResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("decode /api/store reply: %w", err)
	}
	return &sr, nil
}
