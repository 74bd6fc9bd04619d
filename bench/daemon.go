package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running erminerd child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logDone chan struct{}
	logTail *tailBuffer
}

// children tracks every running daemon so an interrupted benchmark can
// stop them all before it exits.
var children = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: make(map[*daemon]bool)}

// startDaemon execs bin with args plus a loopback :0 listen address and
// returns once the daemon logs the address it bound.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should the benchmark itself be killed, the kernel kills the
	// daemons with it instead of leaving them serving.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("starting erminerd: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting erminerd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), logTail: &tailBuffer{max: 4096}}
	children.Lock()
	children.set[d] = true
	children.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logTail.add(line)
			if _, a, ok := strings.Cut(line, " listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		// Drain anything the scanner gave up on so the daemon never
		// blocks writing its log.
		//ermvet:ignore errdrop a failed log drain only loses log lines the benchmark does not read
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.logDone:
		return nil, errors.Join(fmt.Errorf("erminerd exited before listening: %s", d.logTail), d.stop())
	case <-time.After(90 * time.Second):
		return nil, errors.Join(fmt.Errorf("erminerd did not start listening within 90s: %s", d.logTail), d.stop())
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// has not exited within 15s. It returns once the process is gone.
func (d *daemon) stop() error {
	defer func() {
		children.Lock()
		delete(children.set, d)
		children.Unlock()
	}()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("stopping erminerd: %w", err)
	}
	waited := make(chan error, 1)
	go func() {
		<-d.logDone
		waited <- d.cmd.Wait()
	}()
	select {
	case err := <-waited:
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return fmt.Errorf("waiting for erminerd: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		//ermvet:ignore errdrop the process is being abandoned either way; Wait below reaps it
		d.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("erminerd did not drain within 15s and was killed")
	}
}

// stopChildren stops every daemon still running.
func stopChildren() {
	children.Lock()
	var ds []*daemon
	for d := range children.set {
		ds = append(ds, d)
	}
	children.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].cmd.Process.Pid < ds[j].cmd.Process.Pid })
	for _, d := range ds {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ermbench:", err)
		}
	}
}

// cpuTime is the user+system CPU time the process has used so far.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	// The command name is parenthesised and may hold spaces; the
	// numeric fields follow the last ')'. utime and stime are fields 14
	// and 15 of the line, 12th and 13th after the name.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("reading CPU time: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("reading CPU time: short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("reading CPU time: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("reading peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's resident-set high-water mark
// from its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o644); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// scrapeMetrics fetches a daemon's /metrics page as name → value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	//ermvet:ignore errdrop read-only body; closing cannot lose data
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// bySuffix sums the metrics whose name ends in suffix. Names are
// matched by suffix so the benchmark pins no daemon's metric prefix.
func bySuffix(m map[string]float64, suffix string) float64 {
	var sum float64
	for name, v := range m {
		if strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return sum
}

// tailBuffer keeps the last max bytes of a daemon's log for error
// messages.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte // guarded by mu
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// newClient returns an HTTP client holding at most one connection, so
// a generator with n clients never has more than n connections open.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body to url and returns the status and the whole response
// body.
func post(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	//ermvet:ignore errdrop read-only body; closing cannot lose data
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, data, nil
}

// fleet is the serving side of one workload: a single daemon, or a
// coordinator fronting workers.
type fleet struct {
	front   string
	workers []*daemon
	coord   *daemon
}

// startFleet starts a single erminerd, or n workers and a coordinator.
func startFleet(bin string, problemArgs []string, n int) (*fleet, error) {
	if n == 0 {
		d, err := startDaemon(bin, problemArgs...)
		if err != nil {
			return nil, err
		}
		return &fleet{front: d.url, workers: []*daemon{d}}, nil
	}
	f := &fleet{}
	type started struct {
		d   *daemon
		err error
	}
	ch := make(chan started, n)
	for i := 0; i < n; i++ {
		go func() {
			d, err := startDaemon(bin, append([]string{"-worker"}, problemArgs...)...)
			ch <- started{d, err}
		}()
	}
	var errs []error
	var urls []string
	for i := 0; i < n; i++ {
		s := <-ch
		if s.err != nil {
			errs = append(errs, s.err)
			continue
		}
		f.workers = append(f.workers, s.d)
		urls = append(urls, s.d.url)
	}
	if len(errs) > 0 {
		f.stop()
		return nil, errors.Join(errs...)
	}
	coord, err := startDaemon(bin, "-cluster-coordinator", "-workers", strings.Join(urls, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord, f.front = coord, coord.url
	return f, nil
}

// all lists every process of the fleet.
func (f *fleet) all() []*daemon {
	out := append([]*daemon(nil), f.workers...)
	if f.coord != nil {
		out = append(out, f.coord)
	}
	return out
}

// stop stops every process, the front door first.
func (f *fleet) stop() {
	ds := f.all()
	for i := len(ds) - 1; i >= 0; i-- {
		if err := ds[i].stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ermbench:", err)
		}
	}
}

// cpu sums the fleet's CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.all() {
		t, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS sums the fleet's resident-set high-water marks.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, d := range f.all() {
		m, err := peakRSS(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

// metrics sums the fleet's /metrics pages name by name.
func (f *fleet) metrics(c *http.Client) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, d := range f.all() {
		m, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}
