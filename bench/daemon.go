package main

// Process hygiene: locating the repository, building cmd/tasmd, picking
// free loopback ports, starting and stopping real tasmd processes with
// their stderr captured, and reading their CPU and memory from /proc.

import (
	"encoding/json"
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

// env is what one benchmark process owns on disk: the repository it
// measures, the tasmd binary it built from it, and a scratch directory
// that holds every corpus directory and stderr capture of the run. All of
// it lives under <repo>/.bench_build so the benchmark never writes
// outside its checkout.
type env struct {
	root  string // repository root (holds go.mod and cmd/tasmd)
	tasmd string // built tasmd binary
	tmp   string // per-process scratch, removed by cleanup

	mu    sync.Mutex
	procs []*daemon
}

// findRoot walks up from the working directory to the repository root:
// the directory that holds both go.mod and cmd/tasmd. The driver runs the
// benchmark from the root; `go run .` inside bench/ starts one level down.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tasmd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no repository root (go.mod + cmd/tasmd) above the working directory")
		}
		dir = parent
	}
}

// newEnv builds tasmd from the repository's source and creates the
// scratch directory. go build is incremental, so only the first call in a
// checkout compiles.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, tasmd: filepath.Join(build, "bin", "tasmd")}
	cmd := exec.Command("go", "build", "-o", e.tasmd, "./cmd/tasmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building cmd/tasmd: %v\n%s", err, out)
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// cleanup kills every daemon still running and removes the scratch
// directory. It is safe to call more than once and from a signal handler
// goroutine.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	os.RemoveAll(e.tmp)
}

// daemon is one running tasmd process.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	stderr string // path of the captured stderr
	done   chan struct{}
	err    error // cmd.Wait's result, valid once done is closed
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before tasmd binds the port, so a collision is possible but
// needs another process to grab the port in between; start retries then.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches tasmd with the given arguments (plus -addr on a free
// loopback port) and waits until /healthz answers. On failure the
// captured stderr is part of the error.
func (e *env) start(name string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{
			name:   name,
			url:    fmt.Sprintf("http://127.0.0.1:%d", port),
			stderr: filepath.Join(e.tmp, fmt.Sprintf("%s-%d.stderr", name, port)),
			done:   make(chan struct{}),
		}
		logf, err := os.Create(d.stderr)
		if err != nil {
			return nil, err
		}
		d.cmd = exec.Command(e.tasmd, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
		d.cmd.Stderr = logf
		d.cmd.Stdout = logf
		err = d.cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("bench: starting %s: %w", name, err)
		}
		go func() {
			d.err = d.cmd.Wait()
			close(d.done)
		}()
		e.mu.Lock()
		e.procs = append(e.procs, d)
		e.mu.Unlock()
		if lastErr = d.waitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.kill()
		lastErr = fmt.Errorf("%w\n--- %s stderr ---\n%s", lastErr, name, d.stderrTail())
	}
	return nil, lastErr
}

// waitHealthy polls /healthz until it answers 200 or the process exits.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("bench: %s exited before becoming healthy: %v", d.name, d.err)
		default:
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: %s not healthy after %v", d.name, timeout)
}

// health is the body of GET /healthz.
type health struct {
	Docs       int    `json:"docs"`
	Generation uint64 `json:"generation"`
}

func (d *daemon) health() (health, error) {
	var h health
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// stop shuts the daemon down gracefully (SIGTERM, the signal tasmd drains
// on) and waits for it to exit; a daemon that ignores the signal for ten
// seconds is killed.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("bench: %s exited with %v\n%s", d.name, d.err, d.stderrTail())
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("bench: %s did not exit on SIGTERM", d.name)
	}
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // already-exited is the only failure, and harmless
	<-d.done
}

// stderrTail returns the last few KiB of the captured stderr.
func (d *daemon) stderrTail() string {
	data, err := os.ReadFile(d.stderr)
	if err != nil {
		return err.Error()
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return string(data)
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns user+system CPU seconds a process has consumed, all
// threads included, from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	fields := strings.Fields(s[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the CPU seconds this process (the load generator) has
// consumed.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
