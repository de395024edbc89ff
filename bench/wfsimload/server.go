package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
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

// env is where one invocation builds and runs: the checkout root, the
// wfsimd binary, and a scratch directory removed on exit. Everything it
// writes is inside the checkout.
type env struct {
	root    string // checkout root (holds BENCHMARK.json and bench/)
	wfsimd  string // built server binary
	scratch string // per-invocation temp dir under <root>/.bench_build
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (go.mod and bench/go.mod) above the working directory")
		}
		dir = parent
	}
}

// newEnv prepares the scratch directory and, unless wfsimd names a prebuilt
// binary, builds cmd/wfsimd once into it.
func newEnv(ctx context.Context, wfsimd string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, wfsimd: wfsimd, scratch: scratch}
	if e.wfsimd == "" {
		e.wfsimd = filepath.Join(scratch, "wfsimd")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", e.wfsimd, "repro/cmd/wfsimd")
		cmd.Dir = filepath.Join(root, "bench")
		if out, err := cmd.CombinedOutput(); err != nil {
			e.close()
			return nil, fmt.Errorf("build wfsimd: %w\n%s", err, out)
		}
	} else if e.wfsimd, err = filepath.Abs(e.wfsimd); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// dir makes a fresh empty directory in the scratch area.
func (e *env) dir(pattern string) (string, error) {
	return os.MkdirTemp(e.scratch, pattern)
}

// tailBuffer keeps the last few KiB written to it: the server's stderr tail
// that every failure report carries.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one running wfsimd child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *tailBuffer
	started time.Time
	healthy time.Duration // exec → first /healthz OK
	exited  chan struct{} // closed once Wait has returned
	waitErr error
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

// startServer execs wfsimd on a free loopback port and waits until /healthz
// answers. The port is free only at the moment it is picked, so a child that
// dies before becoming healthy is retried on another port.
func (e *env) startServer(ctx context.Context, client *http.Client, args []string) (*server, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("pick port: %w", err)
		}
		s := &server{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			stderr: &tailBuffer{},
			exited: make(chan struct{}),
		}
		s.cmd = exec.Command(e.wfsimd, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
		s.cmd.Stderr = s.stderr
		s.cmd.Dir = e.scratch
		// The child must not outlive this process, whatever kills it.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s.started = time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start wfsimd: %w", err)
		}
		go func() {
			s.waitErr = s.cmd.Wait()
			close(s.exited)
		}()
		if err := s.waitHealthy(ctx, client); err != nil {
			s.kill()
			last = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		return s, nil
	}
	return nil, last
}

func (s *server) waitHealthy(ctx context.Context, client *http.Client) error {
	for {
		select {
		case <-s.exited:
			return s.fail(fmt.Errorf("wfsimd exited before becoming healthy: %v", s.waitErr))
		case <-ctx.Done():
			return s.fail(fmt.Errorf("wfsimd not healthy: %w", ctx.Err()))
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.healthy = time.Since(s.started)
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fail decorates err with the server's stderr tail.
func (s *server) fail(err error) error {
	return fmt.Errorf("%w\n--- wfsimd stderr (tail) ---\n%s", err, s.stderr)
}

// kill SIGKILLs the child and waits until it has ended. Safe to repeat.
func (s *server) kill() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
}

// cpu returns the child's consumed CPU time (utime+stime) from
// /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields after
	// the closing parenthesis start at field 3 (state).
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const clkTck = 100 // USER_HZ: fixed at 100 on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM) in MB.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
