package main

// The two processes of a workload: the server child (this binary re-executed
// with -serve) and the driver's handle on it. Both run with GOMAXPROCS=1 and
// account for themselves with the same Usage snapshot, so client and server
// cost are measured the same way and kept apart.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nrmi"
)

// Usage is one process's cumulative resource counters. The child returns
// its own over the ctl service; differences between two snapshots bracket a
// timed section.
type Usage struct {
	Mallocs    uint64 // runtime.MemStats.Mallocs
	AllocBytes uint64 // runtime.MemStats.TotalAlloc
	CPUMicros  int64  // user + system CPU, getrusage
	// Reads, Writes and Bytes count the process's side of the benchmark's
	// TCP connections.
	Reads, Writes, Bytes int64
	// BatchedCalls is Server.Metrics().BatchedCalls; zero on the client.
	BatchedCalls int64
}

// sub returns the counters' growth since v.
func (u Usage) sub(v Usage) Usage {
	u.Mallocs -= v.Mallocs
	u.AllocBytes -= v.AllocBytes
	u.CPUMicros -= v.CPUMicros
	u.Reads -= v.Reads
	u.Writes -= v.Writes
	u.Bytes -= v.Bytes
	u.BatchedCalls -= v.BatchedCalls
	return u
}

// add returns the sum of two growths.
func (u Usage) add(v Usage) Usage {
	u.Mallocs += v.Mallocs
	u.AllocBytes += v.AllocBytes
	u.CPUMicros += v.CPUMicros
	u.Reads += v.Reads
	u.Writes += v.Writes
	u.Bytes += v.Bytes
	u.BatchedCalls += v.BatchedCalls
	return u
}

// connCounters counts traffic on wrapped connections.
type connCounters struct {
	reads, writes, bytes, conns atomic.Int64
}

func (c *connCounters) wrap(conn net.Conn) net.Conn {
	c.conns.Add(1)
	return &countedConn{Conn: conn, c: c}
}

// countedConn counts every Read and Write that moved bytes: on a TCP socket
// that is one system call each.
type countedConn struct {
	net.Conn
	c *connCounters
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.c.reads.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.c.writes.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

// countedListener wraps accepted connections.
type countedListener struct {
	net.Listener
	c *connCounters
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.c.wrap(conn), nil
}

// readUsage snapshots this process.
func readUsage(c *connCounters) Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return Usage{
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		CPUMicros:  (ru.Utime.Sec+ru.Stime.Sec)*1e6 + (ru.Utime.Usec + ru.Stime.Usec),
		Reads:      c.reads.Load(),
		Writes:     c.writes.Load(),
		Bytes:      c.bytes.Load(),
	}
}

// peakRSSKB reads this process's resident-set high-water mark, VmHWM; 0
// where /proc does not provide it. Not ru_maxrss: that one starts at the
// parent's resident set at fork, so the child's would report the driver's.
func peakRSSKB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(status), "VmHWM:")
	var kb int64
	_, _ = fmt.Sscan(rest, &kb)
	return kb
}

// Ctl is the benchmark-owned control service exported next to Service on
// the same connection.
type Ctl struct {
	srv   *nrmi.Server
	conns *connCounters
}

// Usage returns the child's counters as of the moment the call executes.
func (c *Ctl) Usage() Usage {
	u := readUsage(c.conns)
	u.BatchedCalls = c.srv.Metrics().BatchedCalls
	return u
}

// PeakRSSKB returns the child's resident-set high-water mark.
func (c *Ctl) PeakRSSKB() int64 { return peakRSSKB() }

const childBanner = "nrmi-benchmark-child"

// serveMain is the server child. It learns the engine and nothing else
// about the workload: inputs arrive only as call arguments. It announces
// its two addresses on stdout and exits when stdin closes, so it cannot
// outlive the driver whatever happens to the driver.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	engine := fs.Int("engine", 0, "nrmi.Options.Engine of the server (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	reg := nrmi.NewRegistry()
	if err := registerTypes(reg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	conns := &connCounters{}
	srv, err := nrmi.NewServer(ln.Addr().String(), nrmi.Options{Engine: nrmi.Engine(*engine), Registry: reg})
	if err != nil {
		return err
	}
	if err := srv.Export("svc", &Service{}); err != nil {
		return err
	}
	if err := srv.Export("ctl", &Ctl{srv: srv, conns: conns}); err != nil {
		return err
	}
	srv.Serve(countedListener{ln, conns})
	echoAddr, stopEcho, err := startEcho()
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %s\n", childBanner, ln.Addr(), echoAddr)
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the driver closes the pipe or dies
	stopEcho()
	return srv.Close()
}

// child is the driver's handle on one server process.
type child struct {
	cmd            *exec.Cmd
	stdin          io.Closer
	addr, echoAddr string
}

// children holds every live child so that a signal, the hard deadline or a
// panic can kill them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// spawn starts a server child and waits for its banner.
func spawn(engine nrmi.Engine) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", fmt.Sprintf("-engine=%d", engine))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()

	banner := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		banner <- line
	}()
	select {
	case line := <-banner:
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != childBanner {
			c.stop()
			return nil, fmt.Errorf("server child: unexpected banner %q", line)
		}
		c.addr, c.echoAddr = f[1], f[2]
		return c, nil
	case <-time.After(10 * time.Second):
		c.stop()
		return nil, fmt.Errorf("server child: no banner within 10s")
	}
}

// stop closes the child's stdin, waits for it to exit, and kills it if it
// has not within two seconds.
func (c *child) stop() {
	children.Lock()
	known := children.live[c]
	delete(children.live, c)
	children.Unlock()
	if !known {
		return
	}
	_ = c.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

// killChildren is the last resort for paths that cannot unwind.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.live {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
	}
	children.live = nil
}
