package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2kvs/perfbench/internal/load"
	"p2kvs/perfbench/internal/sut"
)

// rounds is how many times an untraced run sets up a fresh server. Every
// round does the same work, and every end-to-end metric is the median of
// the rounds' figures.
const rounds = 3

// serverProc is the server under test, running in a process of its own.
type serverProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

func startServer(bin, dir string) (*serverProc, error) {
	cmd := exec.Command(bin, "-dir", dir)
	cmd.Stderr = os.Stderr
	// Should the generator die without stopping it, the kernel kills the
	// server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serverProc{cmd: cmd, in: in, out: bufio.NewReader(out)}
	line, err := s.readLine()
	if err != nil || !strings.HasPrefix(line, "addr ") {
		s.kill()
		return nil, fmt.Errorf("server did not report its address: %q %v", line, err)
	}
	s.addr = strings.TrimPrefix(line, "addr ")
	return s, nil
}

func (s *serverProc) readLine() (string, error) {
	line, err := s.out.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

// call sends one control command and returns the reply line.
func (s *serverProc) call(cmd string) (string, error) {
	if _, err := io.WriteString(s.in, cmd+"\n"); err != nil {
		return "", fmt.Errorf("server %s: %w", cmd, err)
	}
	line, err := s.readLine()
	if err != nil {
		return "", fmt.Errorf("server %s: %w", cmd, err)
	}
	if strings.HasPrefix(line, "err ") {
		return "", fmt.Errorf("server %s: %s", cmd, line[4:])
	}
	return line, nil
}

func (s *serverProc) drain() error {
	_, err := s.call("drain")
	return err
}

// cpuUs returns the server's user+system CPU time so far.
func (s *serverProc) cpuUs() (int64, error) {
	line, err := s.call("cpu")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(line, 10, 64)
}

// peakRSSMiB reads the server's peak resident set size (VmHWM).
func (s *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the server down gracefully and waits for it to exit; it is
// killed if it has not exited within a minute.
func (s *serverProc) stop() error {
	io.WriteString(s.in, "quit\n")
	s.in.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		<-done
		return errors.New("server did not exit within a minute; killed")
	}
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// roundResult is one fresh server's figures. Its windows are pooled:
// throughput and CPU are totals over all windows, and the latency
// percentiles are taken over all their samples, so a round's figure
// weighs windows with and without a compaction the same way every time.
type roundResult struct {
	setupS, rssMiB, spaceAmp float64
	opsPerS, cpuUsPerOp      float64
	p50Us, p95Us             float64
	getNs, setNs             []int64
}

// e2e is an untraced run's state.
type e2e struct {
	cfg       config
	book      *load.Book
	attempted int
	failed    int
	wrong     error
}

// passAll drives phase, a pass of n ops, over every connection at once
// and folds the tallies into the run's counts. It returns the merged
// tally and whether every connection survived.
func (e *e2e) passAll(conns []*load.Client, phase, n int) (load.Tally, bool) {
	e.book.Phase(phase, n)
	tallies := make([]load.Tally, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.book.Pass(conns[c], phase, c, e.cfg.w.Depth, &tallies[c], nil)
		}(c)
	}
	wg.Wait()
	var all load.Tally
	ok := true
	for _, t := range tallies {
		all.Sent += t.Sent
		all.Failed += t.Failed
		all.GetNs = append(all.GetNs, t.GetNs...)
		all.SetNs = append(all.SetNs, t.SetNs...)
		if t.Wrong != nil && e.wrong == nil {
			e.wrong = t.Wrong
		}
		if t.ConnErr != nil {
			fmt.Fprintf(os.Stderr, "bench: connection lost: %v\n", t.ConnErr)
			ok = false
		}
	}
	e.attempted += all.Sent
	e.failed += all.Failed
	return all, ok
}

// round boots a fresh server, sets it up and measures windows.
func (e *e2e) round(r, windows int) (res roundResult, err error) {
	dir := filepath.Join(e.cfg.work, fmt.Sprintf("e2e-r%d", r))
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	srv, err := startServer(e.cfg.serverBin, dir)
	if err != nil {
		return res, err
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = fmt.Errorf("server exit: %w", serr)
		}
	}()
	conns := make([]*load.Client, load.Conns)
	for c := range conns {
		if conns[c], err = load.Dial(srv.addr); err != nil {
			return res, err
		}
		defer conns[c].Close()
	}
	if _, err := srv.call("load " + e.cfg.w.Name); err != nil {
		return res, err
	}
	if err := srv.drain(); err != nil {
		return res, err
	}
	t, ok := e.passAll(conns, load.PhaseWarmup, e.cfg.w.WarmOps)
	sent := t.Sent // commands this round, for the INFO cross-check
	if !ok {
		return res, errors.New("connection lost during warm-up")
	}
	if err := srv.drain(); err != nil {
		return res, err
	}
	res.setupS = time.Since(t0).Seconds()

	lost := false
	var done, measured int
	var busy time.Duration
	var cpuUs int64
	for i := 0; i < windows && !lost; i++ {
		cpu0, err := srv.cpuUs()
		if err != nil {
			return res, err
		}
		tw := time.Now()
		t, ok := e.passAll(conns, load.FirstWindow+i, e.cfg.w.WindowOps)
		lost = !ok
		sent += t.Sent
		if err := srv.drain(); err != nil {
			return res, err
		}
		busy += time.Since(tw)
		cpu1, err := srv.cpuUs()
		if err != nil {
			return res, err
		}
		if i == 0 {
			used, err := dirBytes(dir)
			if err != nil {
				return res, err
			}
			res.spaceAmp = float64(used) / float64(e.cfg.w.LiveBytes())
		}
		done += t.Sent - t.Failed
		measured += t.Sent
		cpuUs += cpu1 - cpu0
		res.getNs = append(res.getNs, t.GetNs...)
		res.setNs = append(res.setNs, t.SetNs...)
	}
	all := append(slices.Clone(res.getNs), res.setNs...)
	slices.Sort(all)
	res.opsPerS = float64(done) / busy.Seconds()
	res.cpuUsPerOp = float64(cpuUs) / float64(measured)
	res.p50Us = float64(rank(all, 0.50)) / 1e3
	res.p95Us = float64(rank(all, 0.95)) / 1e3
	if err := e.crossCheck(srv.addr, sent, lost); err != nil {
		return res, err
	}
	if res.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return res, err
	}
	return res, nil
}

// crossCheck compares the server's INFO total_commands_processed with the
// commands the generator sent; commands lost with a broken connection may
// never have reached the server.
func (e *e2e) crossCheck(addr string, sent int, lost bool) error {
	c, err := load.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	info, err := c.Info()
	if err != nil {
		return fmt.Errorf("INFO: %w", err)
	}
	// INFO counts itself before it renders.
	got, want := info["total_commands_processed"], int64(sent+1)
	if got != want && !(lost && got < want) {
		e.wrong = fmt.Errorf("INFO total_commands_processed = %d, but %d commands were sent", got, want)
	}
	return nil
}

// runE2E measures the end-to-end metrics.
func runE2E(cfg config) (result, error) {
	e := &e2e{cfg: cfg, book: load.NewBook(cfg.w, cfg.seed)}
	// The run's work is fixed by --seconds: as many windows as the
	// reference host completes in that time, the same in every round.
	windows := max(1, int(math.Round(cfg.seconds.Seconds()*float64(cfg.w.Rate)/float64(rounds*cfg.w.WindowOps))))
	var rs []roundResult
	for r := 0; r < rounds; r++ {
		res, err := e.round(r, windows)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", r, err)
		}
		rs = append(rs, res)
	}

	var setup, rss, space, ops, cpu, p50, p95 []float64
	var getNs, setNs []int64
	for _, r := range rs {
		setup = append(setup, r.setupS)
		rss = append(rss, r.rssMiB)
		space = append(space, r.spaceAmp)
		ops = append(ops, r.opsPerS)
		cpu = append(cpu, r.cpuUsPerOp)
		p50 = append(p50, r.p50Us)
		p95 = append(p95, r.p95Us)
		getNs = append(getNs, r.getNs...)
		setNs = append(setNs, r.setNs...)
	}
	m := newMetricSet(endToEnd)
	m.set("ops_per_s", median(ops))
	m.set("p50_us", median(p50))
	m.set("p95_us", median(p95))
	m.set("cpu_us_per_op", median(cpu))
	m.set("rss_peak_mib", median(rss))
	m.set("space_amp", median(space))
	m.set("setup_s", median(setup))
	ms, err := m.metrics()
	if err != nil {
		return result{}, err
	}

	fmt.Printf("workload %s seed %d: %d rounds of %d windows of %d ops; server %s\n",
		cfg.w.Name, cfg.seed, len(rs), windows, cfg.w.WindowOps, sut.Flags)
	fmt.Printf("latency samples: %d\n", len(getNs)+len(setNs))
	printHuman(ms)
	for _, l := range []struct {
		name string
		ns   []int64
	}{{"get", getNs}, {"set", setNs}} {
		if len(l.ns) == 0 {
			continue
		}
		slices.Sort(l.ns)
		fmt.Printf("%s latency over all windows: p50 %.1f us, p95 %.1f us, p99 %.1f us, %d samples\n",
			l.name, float64(rank(l.ns, 0.5))/1e3, float64(rank(l.ns, 0.95))/1e3, float64(rank(l.ns, 0.99))/1e3, len(l.ns))
	}
	fmt.Printf("failed_op_ratio %.6f (%d of %d ops)\n", float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	if e.wrong != nil {
		fmt.Printf("verification failed: %v\n", e.wrong)
	}
	return result{Correct: e.wrong == nil, Attempted: e.attempted, Failed: e.failed, Metrics: ms}, nil
}
