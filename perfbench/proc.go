package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server is one lgserve process under test.
type Server struct {
	Base    string // http://127.0.0.1:<port>
	cmd     *exec.Cmd
	started time.Time
	done    chan struct{} // closed once the process has exited and been reaped
	waitErr error         // valid after done

	mu   sync.Mutex
	tail []string // last lines of its log
}

var bannerRE = regexp.MustCompile(`gateway on (http://\S+)`)

// StartServer runs bin with args, which must make it listen on an
// ephemeral loopback port, and returns once its banner names the
// address. The process is killed if this process dies first.
func StartServer(bin string, args ...string) (*Server, error) {
	s := &Server{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if m := bannerRE.FindStringSubmatch(line); m != nil && !sent {
				banner <- m[1]
				sent = true
			}
		}
		// Wait only after the log pipe is drained, as exec requires.
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	select {
	case s.Base = <-banner:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("lgserve exited before listening: %v\n%s", s.waitErr, s.Log())
	case <-time.After(60 * time.Second):
		s.Stop()
		return nil, errors.New("lgserve printed no listen banner within 60s")
	}
}

// Log returns the last lines the server logged.
func (s *Server) Log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// Exited reports whether the process has ended.
func (s *Server) Exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// WaitReady polls /v1/epoch until it answers 200 and returns the time
// since the process was started.
func (s *Server) WaitReady(ctx context.Context, timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(s.Base + "/v1/epoch")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		if s.Exited() {
			return 0, fmt.Errorf("lgserve exited before its first snapshot: %v\n%s", s.waitErr, s.Log())
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("lgserve not ready within %v", timeout)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// PeakRSSMB reads the process's VmHWM from /proc, in MiB.
func (s *Server) PeakRSSMB() (float64, error) {
	return statusMB(s.cmd.Process.Pid, "VmHWM")
}

// statusMB reads a kB field of a process's /proc status, in MiB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// RSSSampler reads a process's VmRSS at a fixed interval. A peak
// (VmHWM) of the garbage-collected programs measured here depends on
// where a collection happens to end, and moved over a fifth between
// runs; the median of the samples does not.
type RSSSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

// SampleRSS starts sampling pid's VmRSS every interval.
func SampleRSS(pid int, every time.Duration) *RSSSampler {
	s := &RSSSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			mb, err := statusMB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the median sample and the count.
func (s *RSSSampler) Stop() (float64, int, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	return medianFloat(s.mb), len(s.mb), nil
}

// Stop asks the server to shut down, kills it if it has not exited
// within a few seconds, and returns once it is reaped. It is safe to
// call more than once.
func (s *Server) Stop() {
	if s.Exited() {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a failure means it already exited
	select {
	case <-s.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill() // as above
	<-s.done
}
