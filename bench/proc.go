package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every architecture Go supports.
const clockTicks = 100

// systemCmd prepares a command running one of the binaries under test.
// It inherits the driver's environment, so it runs at the GOMAXPROCS a
// user gets (the run file records it), and `figures -jobs` and the
// daemons' parallel paths use every CPU. The kernel kills the child if
// the driver dies without stopping it, so a killed run leaves no daemon
// behind.
func systemCmd(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// daemon is one server process the benchmark runs: a figuresd, or the
// host speed probe.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	base string
	done chan struct{} // closed once the process has been waited for
}

// procs tracks every daemon a run starts so that each is stopped and
// waited for on every exit path.
type procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func (p *procs) add(d *daemon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*daemon]bool)
	}
	p.live[d] = true
}

// stopAll stops every daemon still running and waits for each.
func (p *procs) stopAll() {
	p.mu.Lock()
	live := make([]*daemon, 0, len(p.live))
	for d := range p.live {
		live = append(live, d)
	}
	p.mu.Unlock()
	for _, d := range live {
		p.stop(d)
	}
}

// stop ends one daemon: SIGTERM for a graceful exit, SIGKILL if it is
// still running after a few seconds, and in both cases waits for it.
func (p *procs) stop(d *daemon) {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	p.mu.Lock()
	delete(p.live, d)
	p.mu.Unlock()
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startDaemon launches figuresd on a free loopback port with args and
// waits until /healthz answers. Its log goes to logPath.
func (e *env) startDaemon(ctx context.Context, logPath string, args ...string) (*daemon, error) {
	return e.startProcess(ctx, e.figuresd, logPath, args...)
}

// startProcess launches bin with args and "-addr" plus a free loopback
// port, and waits until it answers /healthz.
func (e *env) startProcess(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, err := e.launch(bin, addr, logPath, args)
		if err != nil {
			return nil, err
		}
		if lastErr = waitHealthy(ctx, d, 20*time.Second); lastErr == nil {
			return d, nil
		}
		e.procs.stop(d)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), lastErr)
}

func (e *env) launch(bin, addr, logPath string, args []string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := systemCmd(context.Background(), bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	e.procs.add(d)
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits,
// or the timeout passes.
func waitHealthy(ctx context.Context, d *daemon, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return errors.New("exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("not healthy in time")
		}
	}
}

// cpuTime reads a process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after its closing
	// parenthesis are fixed: utime and stime are the 12th and 13th.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// daemonCPU sums the CPU time of a set of daemons.
func daemonCPU(ds ...*daemon) (time.Duration, error) {
	var total time.Duration
	for _, d := range ds {
		t, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// selfCPU is the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childUsage is the CPU time and peak RSS of one finished child.
func childUsage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}
