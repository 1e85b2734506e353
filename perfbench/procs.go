package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// the Linux ABI fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// proc is a server process the benchmark started.
type proc struct {
	name string
	base string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
	log  *os.File
}

// startProc launches bin with args (plus -addr on a free loopback port)
// in dir, logging to dir/<name>.log, and returns once it answers
// GET /api/health.
func startProc(ctx context.Context, name, bin, dir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	if err := p.waitReady(ctx, 20*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitReady polls /api/health until it answers 200.
func (p *proc) waitReady(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/api/health", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %v (see %s)", p.name, p.err, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", p.name, limit)
		}
	}
}

// stop sends SIGTERM, waits for the process to drain and exit, and
// kills it if it has not exited within ten seconds.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
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

// cpuTime returns the user+system CPU time of a process, all threads.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatCPU extracts utime+stime (fields 14 and 15, in clock ticks)
// from a /proc/<pid>/stat line. The command name (field 2) may hold
// spaces and parentheses, so fields are counted after its last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := bytes.Fields(data[i+1:])
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// resetPeakRSS sets a process's VmHWM to its current resident set
// (writing 5 to /proc/<pid>/clear_refs, Linux 4.0 and later).
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// parseVmHWM extracts the VmHWM line of /proc/<pid>/status in bytes.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

// stealTicks returns the CPU time, in clock ticks summed over all CPUs,
// that the hypervisor ran something else while the machine's CPUs
// wanted to run: the steal column of /proc/stat.
func stealTicks() (uint64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(data)
}

// parseSteal extracts the steal field (the eighth value) of the
// aggregate "cpu" line of /proc/stat.
func parseSteal(data []byte) (uint64, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no aggregate cpu line with a steal field: %q", line)
	}
	v, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return v, nil
}
