package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one rapd child process. Its structured log on stderr is
// scanned line by line, so the benchmark can see when the admin endpoint
// is listening and when the sources are done.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time

	listening chan struct{} // closed at the "admin listening" line
	sourced   chan struct{} // closed at the first "source done" line
	exited    chan struct{} // closed once the process has been waited for

	mu       sync.Mutex
	listenAt time.Time
	doneAt   time.Time
	exitAt   time.Time
	addr     string
	lines    []string
	waitErr  error
	logEnded chan struct{}
}

var addrRe = regexp.MustCompile(`addr=(\S+)`)

// startRapd execs rapd with args, feeding it stdin (nil: no input).
func startRapd(bin string, args []string, stdin io.Reader) (*daemon, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:       exec.Command(bin, args...),
		listening: make(chan struct{}),
		sourced:   make(chan struct{}),
		exited:    make(chan struct{}),
		logEnded:  make(chan struct{}),
	}
	d.cmd.Stdin = stdin
	d.cmd.Stderr = pw
	// rapd must not outlive the benchmark, even when the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("starting rapd: %w", err)
	}
	pw.Close()
	go d.scan(pr)
	go func() {
		err := d.cmd.Wait()
		now := time.Now()
		d.mu.Lock()
		d.exitAt, d.waitErr = now, err
		d.mu.Unlock()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) scan(r *os.File) {
	defer close(d.logEnded)
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	listened, sourced := false, false
	for sc.Scan() {
		line, now := sc.Text(), time.Now()
		d.mu.Lock()
		d.lines = append(d.lines, line)
		switch {
		case !listened && strings.Contains(line, `msg="admin listening"`):
			listened = true
			d.listenAt = now
			if m := addrRe.FindStringSubmatch(line); m != nil {
				d.addr = m[1]
			}
			close(d.listening)
		case !sourced && strings.Contains(line, `msg="source done"`):
			sourced = true
			d.doneAt = now
			close(d.sourced)
		}
		d.mu.Unlock()
	}
}

// waitListening blocks until the admin endpoint is up and returns its
// address and the time from exec to the log line.
func (d *daemon) waitListening(timeout time.Duration) (string, time.Duration, error) {
	select {
	case <-d.listening:
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.addr, d.listenAt.Sub(d.started), nil
	case <-d.exited:
		return "", 0, fmt.Errorf("rapd exited before listening:\n%s", d.log())
	case <-time.After(timeout):
		d.kill()
		return "", 0, fmt.Errorf("rapd not listening after %v", timeout)
	}
}

// exit is how a finished daemon ended.
type exit struct {
	at       time.Time
	cpu      time.Duration // user + system
	maxRSSMB float64
}

// wait blocks until rapd exits and its log is read. A non-zero exit is an
// error carrying the log.
func (d *daemon) wait(timeout time.Duration) (exit, error) {
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
		return exit{}, fmt.Errorf("rapd still running after %v", timeout)
	}
	<-d.logEnded
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.waitErr != nil {
		return exit{}, fmt.Errorf("rapd: %v\n%s", d.waitErr, strings.Join(d.lines, "\n"))
	}
	ru := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return exit{at: d.exitAt, cpu: cpu, maxRSSMB: float64(ru.Maxrss) / 1024}, nil
}

// kill stops the daemon and waits until it has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	<-d.logEnded
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// logValue returns the uint64 value of key= on the last log line
// containing msg, and whether there was one.
func (d *daemon) logValue(msg, key string) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.lines) - 1; i >= 0; i-- {
		line := d.lines[i]
		if !strings.Contains(line, msg) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}
