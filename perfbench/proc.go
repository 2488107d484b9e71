package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one spawned ospserve process in service mode, listening on
// ephemeral loopback ports for HTTP and the stream transport.
type server struct {
	cmd    *exec.Cmd
	banner chan string // the first bannerLines lines of stdout
	http   string      // base URL, http://host:port
	stream string      // host:port
	done   chan struct{}
}

// children tracks every live server so any exit path can kill them.
var children struct {
	sync.Mutex
	set map[*server]bool
}

// spawnServer starts ospserve; waitReady then blocks until it reports
// both listeners. Splitting the two lets a caller start several nodes
// before waiting on any. traced adds -stream-timings, which feeds the
// stream_decode stage histogram.
func spawnServer(bin string, traced bool, node string) (*server, error) {
	args := []string{"-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0"}
	if traced {
		args = append(args, "-stream-timings")
	}
	if node != "" {
		args = append(args, "-node", node)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark die without cleaning up, the kernel kills the
	// server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, banner: make(chan string, bannerLines), done: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = map[*server]bool{}
	}
	children.set[s] = true
	children.Unlock()
	// The reader hands the banner to waitReady, then keeps draining stdout
	// so the server never blocks on a full pipe. It ends when the process
	// exits, and Wait runs after it, as os/exec requires.
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		sent := 0
		for sc.Scan() {
			if sent < bannerLines {
				s.banner <- sc.Text()
				sent++
			}
		}
		close(s.banner)
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once the run is over
	}()
	return s, nil
}

// bannerLines is how many leading stdout lines are handed to waitReady;
// ospserve prints both listener addresses within its first three.
const bannerLines = 3

// waitReady blocks until the server has reported both listeners.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.After(timeout)
	for s.http == "" || s.stream == "" {
		select {
		case ln, ok := <-s.banner:
			if !ok {
				return errors.New("ospserve exited before listening")
			}
			if _, addr, ok := strings.Cut(ln, "admission service listening on "); ok {
				s.http = strings.TrimSpace(addr)
			}
			if _, addr, ok := strings.Cut(ln, "stream transport listening on "); ok {
				s.stream = strings.TrimSpace(addr)
			}
		case <-deadline:
			return errors.New("ospserve did not report its listeners in time")
		}
	}
	return nil
}

// stop asks the server to drain and exit (SIGTERM) and waits; a server
// that has not exited after grace is killed.
func (s *server) stop(grace time.Duration) {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already be gone
	select {
	case <-s.done:
	case <-time.After(grace):
		s.cmd.Process.Kill() //nolint:errcheck // see above
		<-s.done
	}
	children.Lock()
	delete(children.set, s)
	children.Unlock()
}

// killChildren kills every live server and waits for each to exit.
func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.set))
	for s := range children.set {
		live = append(live, s)
	}
	children.set = nil
	children.Unlock()
	for _, s := range live {
		s.cmd.Process.Kill() //nolint:errcheck // it may already be gone
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", ln, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// rssMB reads the process's current resident set in MB from
// /proc/<pid>/statm (its second field, in pages).
func rssMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, errors.New("short /proc statm line")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssSampler polls the servers' resident sets every rssPeriod and keeps
// the largest value seen since the last reset. A per-round peak, taken
// as a median over rounds, is far steadier than the lifetime VmHWM,
// which a single badly timed garbage collection can set.
type rssSampler struct {
	pids []int
	mu   sync.Mutex
	peak float64
	err  error
	stop chan struct{}
	done chan struct{}
}

const rssPeriod = 5 * time.Millisecond

func startRSSSampler(pids []int) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	for _, pid := range s.pids {
		v, err := rssMB(pid)
		s.mu.Lock()
		if err != nil && s.err == nil {
			s.err = err
		}
		s.peak = max(s.peak, v)
		s.mu.Unlock()
	}
}

// take returns the peak since the previous take (sampling once more
// first, so a short interval is never empty) and resets it.
func (s *rssSampler) take() (float64, error) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak, err := s.peak, s.err
	s.peak, s.err = 0, nil
	return peak, err
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every mainstream Linux build.
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a stat line.
// The command name (field 2) may hold spaces, so fields are counted from
// its closing parenthesis.
func parseStatCPU(raw []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat times: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time (getrusage).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
