package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vzlens/internal/dnswire"
)

// buildServer compiles ./cmd/vzserve from the repository at root into
// dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "vzserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vzserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build vzserve: %w", err)
	}
	return bin, nil
}

// server is one child vzserve process. Every process the harness starts
// is a server, and every server is stopped and waited for before the
// harness exits.
type server struct {
	cmd      *exec.Cmd
	exited   chan struct{}
	waitErr  error
	started  time.Time
	http     string // base URL of the API listener
	debug    string // base URL of the debug listener (metrics, expvar)
	dnsAddr  chan string
	dns      string
	logPath  string
	logFile  *os.File
	ctl      *http.Client // control plane: readiness, scrapes; never load
	factsDir string
}

// dirs are the on-disk state of one server lineage: a fresh pair for
// every set-up, reused by the cold restarts that follow it.
type dirs struct{ facts, store string }

func newDirs(parent string) (dirs, error) {
	d, err := os.MkdirTemp(parent, "srv-")
	if err != nil {
		return dirs{}, err
	}
	ds := dirs{facts: filepath.Join(d, "facts"), store: filepath.Join(d, "store")}
	for _, p := range []string{ds.facts, ds.store} {
		if err := os.Mkdir(p, 0o755); err != nil {
			return dirs{}, err
		}
	}
	return ds, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs bin as a standalone server over ds. extra flags
// come last (-warm=false, -trace FILE).
func startServer(bin string, ds dirs, logPath string, extra ...string) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-quick", "-role", "standalone", "-drain", "10s",
		"-addr", httpAddr, "-dns-addr", "127.0.0.1:0", "-debug-addr", debugAddr,
		"-facts", ds.facts, "-store", ds.store}, extra...)
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:      exec.Command(bin, args...),
		exited:   make(chan struct{}),
		http:     "http://" + httpAddr,
		debug:    "http://" + debugAddr,
		dnsAddr:  make(chan string, 1),
		logPath:  logPath,
		logFile:  logFile,
		ctl:      &http.Client{Timeout: 10 * time.Second},
		factsDir: ds.facts,
	}
	// If the harness dies without stopping it, the kernel kills the
	// server rather than leaving it running.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start vzserve: %w", err)
	}
	// The log is copied to a file for post-mortems; the DNS listener's
	// port is only known from its log line (-dns-addr 127.0.0.1:0).
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		const marker = "DNS data plane on "
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.Index(line, marker); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len(marker):], " ")
				s.dnsAddr <- addr
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-logDone
		s.waitErr = s.cmd.Wait()
		logFile.Close()
		close(s.exited)
	}()
	return s, nil
}

// readiness is the part of /readyz the harness waits on.
type readiness struct {
	Campaigns map[string]bool `json:"campaigns"`
}

// waitReady blocks until the server is what a user would call up:
// /readyz reports the lake committed (and, unless cold, both campaign
// caches warm) and the DNS plane has answered one query. It returns the
// time since exec.
func (s *server) waitReady(cold bool, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	httpOK, dnsOK := false, false
	for !(httpOK && dnsOK) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("vzserve exited during start-up: %v (log %s)", s.waitErr, s.logPath)
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("vzserve not ready after %v (log %s)", timeout, s.logPath)
		}
		if s.dns == "" {
			select {
			case s.dns = <-s.dnsAddr:
			default:
			}
		}
		if !httpOK {
			var r readiness
			if err := s.getJSON(s.http+"/readyz", &r); err == nil {
				httpOK = r.Campaigns["facts"] && (cold || r.Campaigns["trace"] && r.Campaigns["chaos"])
			}
		}
		if !dnsOK && s.dns != "" {
			dnsOK = dnsProbe(s.dns) == nil
		}
		if !(httpOK && dnsOK) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return time.Since(s.started), nil
}

// dnsProbe sends one CHAOS identification query and waits briefly for
// any answer.
func dnsProbe(addr string) error {
	pkt, err := dnswire.EncodeQuery(1, dnswire.Question{Name: dnswire.HostnameBind + ".l", Type: dnswire.TypeTXT, Class: dnswire.ClassCH})
	if err != nil {
		return err
	}
	c, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write(pkt); err != nil {
		return err
	}
	if err := c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		return err
	}
	buf := make([]byte, 512)
	_, err = c.Read(buf)
	return err
}

func (s *server) getJSON(url string, v any) error {
	resp, err := s.ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the server's metric registry and runtime memstats from
// the debug listener, which sits outside admission control and outside
// the vz_http_* accounting.
func (s *server) scrape() (prom, memstats, error) {
	resp, err := s.ctl.Get(s.debug + "/metrics")
	if err != nil {
		return nil, memstats{}, err
	}
	defer resp.Body.Close()
	p, err := parseProm(resp.Body)
	if err != nil {
		return nil, memstats{}, err
	}
	var vars struct {
		Memstats memstats `json:"memstats"`
	}
	if err := s.getJSON(s.debug+"/debug/vars", &vars); err != nil {
		return nil, memstats{}, err
	}
	return p, vars.Memstats, nil
}

// memstats is the slice of runtime.MemStats the per-layer numbers use.
type memstats struct {
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s — the
// Linux USER_HZ on every architecture Go supports).
func (s *server) cpuSeconds() (float64, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it
	// start at the last ')'.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / 100, nil
}

// selfCPU is the harness's own user+system CPU time so far, to the
// microsecond.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// liveHeapMB forces garbage collections in the server (the pprof heap
// endpoint's gc=1) and returns the heap still allocated after them: the
// memory the server holds, free of when its last GC happened to run.
// It takes two, because buffers parked in a sync.Pool survive the
// first.
func (s *server) liveHeapMB() (float64, error) {
	for i := 0; i < 2; i++ {
		resp, err := s.ctl.Get(s.debug + "/debug/pprof/heap?gc=1")
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var vars struct {
		Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
	}
	if err := s.getJSON(s.debug+"/debug/vars", &vars); err != nil {
		return 0, err
	}
	return float64(vars.Memstats.HeapAlloc) / (1 << 20), nil
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain overruns. A server that already died reports
// how it exited.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("vzserve did not drain within 20s (log %s)", s.logPath)
	}
	s.ctl.CloseIdleConnections()
	var ee *exec.ExitError
	if s.waitErr != nil && !errors.As(s.waitErr, &ee) {
		return s.waitErr
	}
	if ee != nil {
		return fmt.Errorf("vzserve exited with %v (log %s)", ee, s.logPath)
	}
	return nil
}

// kill is the error-path stop: no drain, just make sure the process is
// gone and reaped.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// get issues one control-plane GET (used by cold restarts, whose
// queries are the measurement, not load) and returns the body.
func (s *server) get(path string) (int, []byte, error) {
	resp, err := s.ctl.Get(s.http + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
