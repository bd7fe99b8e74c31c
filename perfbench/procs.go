package main

import (
	"bufio"
	"encoding/json"
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

	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/repl"
	"ipa/internal/server"
)

// serverProc is one ipaserver child process.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string // wire protocol
	admin string // HTTP /stats and /healthz
	logs  *tailBuffer
	done  chan struct{} // closed once the process has exited
}

// statsDoc mirrors the admin endpoint's /stats document.
type statsDoc struct {
	Engine engine.Stats                       `json:"engine"`
	Ops    map[string]metrics.LatencySnapshot `json:"ops"`
	Server server.Counters                    `json:"server"`
	Repl   *repl.Stats                        `json:"repl"`
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// freeAddrs reserves n loopback TCP addresses by binding port 0, then
// releases them for the child processes to bind.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startServer starts ipaserver with the given wire and admin addresses
// and extra flags, and waits until its admin endpoint answers /healthz.
func startServer(binDir, addr, admin string, args ...string) (*serverProc, error) {
	p := &serverProc{addr: addr, admin: admin, logs: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, "ipaserver"),
		append([]string{"-addr", addr, "-admin", admin}, args...)...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	// A benchmark killed mid-run must not leave servers behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ipaserver: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is irrelevant: every stop is a kill
		close(p.done)
	}()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := httpClient.Get("http://" + admin + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("ipaserver exited during start-up:\n%s", p.logs)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("ipaserver on %s not ready after 90s:\n%s", addr, p.logs)
		}
	}
}

// stats fetches and decodes the process's /stats document.
func (p *serverProc) stats() (*statsDoc, error) {
	resp, err := httpClient.Get("http://" + p.admin + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/stats: %s", p.admin, resp.Status)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s/stats: %w", p.admin, err)
	}
	return &doc, nil
}

// alive reports an error if the process has exited.
func (p *serverProc) alive() error {
	select {
	case <-p.done:
		return fmt.Errorf("ipaserver on %s exited:\n%s", p.addr, p.logs)
	default:
		return nil
	}
}

// stop kills the process and waits for it to exit. The servers keep all
// state in memory, so there is nothing for a graceful drain to save.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// peakRSS reads a process's peak resident set size (VmHWM) in KiB.
func peakRSS(pid int) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

func (p *serverProc) peakRSS() int64 { return peakRSS(p.cmd.Process.Pid) }

// tailBuffer keeps the last max bytes written to it: a child's log,
// shown only when the child fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, b...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	t.mu.Unlock()
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// stopAll stops every process in ps.
func stopAll(ps []*serverProc) {
	for _, p := range ps {
		if p != nil {
			p.stop()
		}
	}
}
