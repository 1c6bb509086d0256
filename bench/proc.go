package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The benchmark's own files live under bench/out (reports, server
// stderr, temp data dirs) and the built binaries under .bench_build;
// both are relative to the repository root and ignored by git.
const (
	outDirRel   = "bench/out"
	buildDirRel = ".bench_build"
	serverBin   = "spannerd"
	tmpPrefix   = "tmp-"
)

// findRoot locates the repository root (the directory that holds
// cmd/spannerd) from the working directory: the harness is started
// either there (run.sh) or in bench/ (go run -C bench .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spannerd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/spannerd beside or above %s: run from the repository root", wd)
}

// buildServer compiles cmd/spannerd into .bench_build and returns the
// binary's path. The go build cache makes a repeat build a no-op.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDirRel, serverBin)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spannerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/spannerd: %v\n%s", err, out)
	}
	return bin, nil
}

// preflight fails fast when a spannerd from an earlier run is still
// alive (it would share the two cores and slow every number), and
// removes temp data dirs whose owning harness is gone.
func preflight(root string) error {
	procs, err := filepath.Glob("/proc/[0-9]*/comm")
	if err != nil {
		return err
	}
	for _, p := range procs {
		comm, err := os.ReadFile(p)
		if err != nil {
			continue // the process exited while we were looking
		}
		if strings.TrimSpace(string(comm)) == serverBin {
			pid := filepath.Base(filepath.Dir(p))
			// A killed server whose parent has not reaped it yet uses no
			// CPU; "Z" is the state field, right after the command name.
			if stat, err := os.ReadFile(filepath.Join(filepath.Dir(p), "stat")); err != nil || bytes.Contains(stat, []byte(") Z ")) {
				continue
			}
			return fmt.Errorf("preflight: a stale %s is alive (pid %s); kill it before benchmarking", serverBin, pid)
		}
	}
	dirs, _ := filepath.Glob(filepath.Join(root, outDirRel, tmpPrefix+"*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.SplitN(strings.TrimPrefix(filepath.Base(d), tmpPrefix), "-", 2)[0])
		if err != nil || syscall.Kill(pid, 0) == nil {
			continue // not ours to judge, or its harness is alive
		}
		_ = os.RemoveAll(d) // best effort: a leftover only costs disk
	}
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// serverProc is one spawned spannerd: its own process group, stderr in
// a file, an optional temp data dir that dies with it.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	stderr  *os.File
	exited  chan struct{} // closed once Wait returned

	stopOnce sync.Once
}

// procs tracks every live child so that one call — from a deferred
// cleanup, the signal handler, or a panic path — kills them all.
var procs struct {
	sync.Mutex
	live map[*serverProc]struct{}
}

func stopAllServers() {
	procs.Lock()
	all := make([]*serverProc, 0, len(procs.live))
	for p := range procs.live {
		all = append(all, p)
	}
	procs.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// spawnServer starts the server binary on a free port with the given
// extra flags; "{data}" in a flag is replaced by a fresh temp dir.
func spawnServer(root, bin, label string, flags []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, outDirRel)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	p := &serverProc{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log", "off"}
	for _, f := range flags {
		if strings.Contains(f, "{data}") {
			if p.dataDir == "" {
				p.dataDir, err = os.MkdirTemp(out, fmt.Sprintf("%s%d-", tmpPrefix, os.Getpid()))
				if err != nil {
					return nil, err
				}
			}
			f = strings.ReplaceAll(f, "{data}", p.dataDir)
		}
		args = append(args, f)
	}
	// A file, never a pipe: a pipe nobody drains blocks the server, and
	// an inherited one keeps `go run` waiting on an orphan.
	p.stderr, err = os.Create(filepath.Join(out, "spannerd-"+label+".stderr.log"))
	if err != nil {
		p.removeData()
		return nil, err
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = p.stderr
	p.cmd.Stderr = p.stderr
	// Own process group, so killing the group takes any descendant too;
	// Pdeathsig covers the one path no handler sees (SIGKILL of the
	// harness). The kernel ties Pdeathsig to the forking thread, so that
	// thread is pinned and parked until the child is gone.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := p.cmd.Start()
		started <- err
		if err != nil {
			return
		}
		_ = p.cmd.Wait() // exit status is irrelevant: we kill it ourselves
		close(p.exited)
	}()
	if err := <-started; err != nil {
		p.stderr.Close()
		p.removeData()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*serverProc]struct{}{}
	}
	procs.live[p] = struct{}{}
	procs.Unlock()

	if err := p.waitReady(20 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *serverProc) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("spannerd exited during start-up; see %s", p.stderr.Name())
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spannerd not ready after %s; see %s", limit, p.stderr.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) removeData() {
	if p.dataDir != "" {
		_ = os.RemoveAll(p.dataDir) // best effort; preflight sweeps leftovers
	}
}

// stop kills the server's process group, waits until it is gone and
// removes its data dir. Safe to call from several paths at once.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // ESRCH when already gone
		<-p.exited
		p.stderr.Close()
		p.removeData()
		procs.Lock()
		delete(procs.live, p)
		procs.Unlock()
	})
}

// cpuSeconds is the CPU time the server's threads have run so far: the
// sum of /proc/<pid>/task/*/schedstat (nanoseconds on a CPU; a Go
// server's threads do not exit). Where the kernel keeps no schedstats it
// falls back to utime+stime of /proc/<pid>/stat, which counts in 10 ms
// ticks — coarse enough for a round's value to repeat to the last digit.
func (p *serverProc) cpuSeconds() (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.pid()))
	var ns uint64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		first, _, _ := strings.Cut(string(raw), " ")
		n, err := strconv.ParseUint(first, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparsable %s: %q", t, raw)
		}
		ns += n
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparsable /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicksPerSecond = 100 // USER_HZ; fixed on Linux
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
