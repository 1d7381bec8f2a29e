package main

import (
	"bufio"
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
	"time"
)

// buildServer compiles cmd/fragserver from the checkout the benchmark runs
// in, so the numbers describe this commit's serving code.
func buildServer(buildDir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "fragserver")); err != nil {
		return "", fmt.Errorf("cmd/fragserver not found: run from the repository root (%w)", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "fragserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fragserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/fragserver: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running fragserver.
type child struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once Wait has returned
	setup  time.Duration // exec → first 200 from /readyz
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs the server and waits until /readyz answers 200.
func startServer(bin string, args []string, logPath string) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck — a killed child always reports an error
		close(c.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.setup = time.Since(begin)
				return c, nil
			}
		}
		select {
		case <-c.exited:
			c.stop()
			return nil, fmt.Errorf("fragserver exited during start-up, see %s", logPath)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(begin) > 60*time.Second {
			c.stop()
			return nil, errors.New("fragserver not ready after 60s")
		}
	}
}

// alive reports whether the server process is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop kills the server and waits until it has gone.
func (c *child) stop() {
	c.cmd.Process.Kill() //nolint:errcheck — already exited is fine
	<-c.exited
	c.log.Close()
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// parseProcStat returns utime+stime of a /proc/<pid>/stat line. The command
// name may contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: utime/stime are not numbers")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// parseVmHWM returns the peak resident set in bytes from /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

func (c *child) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// promSample is a scrape of /metrics: series text (name plus label set, as
// exposed) → value.
type promSample map[string]float64

// parseProm reads the Prometheus text format, skipping comments and any
// OpenMetrics exemplar suffix.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// Label values may contain spaces; the value follows the last one
		// outside the braces.
		i := strings.LastIndexByte(line, ' ')
		if j := strings.LastIndexByte(line, '}'); i < j || i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric whose label set contains all
// the given `key="value"` fragments.
func (p promSample) sum(name string, labels ...string) float64 {
	var total float64
series:
	for k, v := range p {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

func (c *child) scrape() (promSample, error) {
	resp, err := http.Get("http://" + c.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
