// Package netsim provides the reproduction's stand-in for the paper's
// physical testbed (Section 5.3.3: a SunBlade 1000 and an Ultra 10 joined
// by a 100 Mbps network): an in-process network whose links impose
// configurable latency and bandwidth costs, plus per-host CPU-speed factors
// and byte/message accounting.
//
// The model charges two costs per message, matching what dominates
// middleware benchmarks: a fixed one-way latency per message and a
// serialization delay proportional to message size. A message is one Write
// of one or more whole transport frames; the paper's Tables 1–7 make
// sequential calls, one frame per message.
//
// Everything also works over real TCP; netsim exists so experiments are
// reproducible on one machine and so the harness can report bytes-on-wire
// and round-trip counts, which are hardware-independent observables.
package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes one directional link's characteristics.
type Profile struct {
	// Latency is the one-way, per-message delivery delay.
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second; 0 means
	// unlimited.
	Bandwidth int64
}

// Delay returns the time to deliver a message of n bytes.
func (p Profile) Delay(n int) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / p.Bandwidth)
	}
	return d
}

// LAN100Mbps approximates the paper's experimental network: 100 Mbps
// effective bandwidth with a LAN-class per-message latency.
func LAN100Mbps() Profile {
	return Profile{Latency: 150 * time.Microsecond, Bandwidth: 100_000_000 / 8}
}

// Loopback is an unshaped link for "same machine" baselines (the paper's
// Table 3 configuration).
func Loopback() Profile { return Profile{} }

// Host models one machine's processing speed relative to the reference
// host. The paper's fast machine (750 MHz) is the reference; its slow
// machine (440 MHz) corresponds to a factor of roughly 1.7.
type Host struct {
	// Name identifies the host in metrics.
	Name string
	// CPUFactor scales processing time; 1.0 is the reference host, larger
	// is slower. Values below 1 are treated as 1.
	CPUFactor float64
}

// Charge blocks for the extra time a workload that took elapsed on the
// reference host would need on this host. The middleware layers call it
// around serialization work so that "slow machine" columns exercise the
// same code paths with honestly scaled costs.
func (h Host) Charge(elapsed time.Duration) {
	if h.CPUFactor <= 1 {
		return
	}
	extra := time.Duration(float64(elapsed) * (h.CPUFactor - 1))
	if extra > 0 {
		time.Sleep(extra)
	}
}

// Stats aggregates traffic accounting for a network or a single conn.
type Stats struct {
	// BytesSent counts payload bytes written, both directions combined for
	// the network, per direction for a conn. Dropped frames are not
	// counted: Messages and BytesSent describe delivered traffic.
	BytesSent int64
	// Messages counts Write calls (one or more whole frames each).
	Messages int64
	// Fault-injection counters: how many frames each fault kind hit.
	Dropped    int64
	Delayed    int64
	Duplicated int64
	Corrupted  int64
	Severed    int64
}

// Network is an in-process network: named listen points joined by shaped
// pipes. The zero value is not usable; call NewNetwork.
type Network struct {
	profile Profile

	mu        sync.Mutex
	listeners map[string]*listener
	plans     map[string]*Plan         // listen addr -> fault plan for that link
	parts     map[[2]string]struct{}   // partitioned host pairs, sorted
	conns     map[*shapedConn]struct{} // live conn halves, for partition severing
	closed    bool

	bytes    atomic.Int64
	messages atomic.Int64

	dropped    atomic.Int64
	delayed    atomic.Int64
	duplicated atomic.Int64
	corrupted  atomic.Int64
	severed    atomic.Int64
}

// NewNetwork returns a network whose links all use the given profile.
func NewNetwork(profile Profile) *Network {
	return &Network{
		profile:   profile,
		listeners: make(map[string]*listener),
		plans:     make(map[string]*Plan),
		parts:     make(map[[2]string]struct{}),
		conns:     make(map[*shapedConn]struct{}),
	}
}

// Stats returns cumulative traffic over all links.
func (n *Network) Stats() Stats {
	return Stats{
		BytesSent:  n.bytes.Load(),
		Messages:   n.messages.Load(),
		Dropped:    n.dropped.Load(),
		Delayed:    n.delayed.Load(),
		Duplicated: n.duplicated.Load(),
		Corrupted:  n.corrupted.Load(),
		Severed:    n.severed.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.bytes.Store(0)
	n.messages.Store(0)
	n.dropped.Store(0)
	n.delayed.Store(0)
	n.duplicated.Store(0)
	n.corrupted.Store(0)
	n.severed.Store(0)
}

// SetFaults attaches a fault plan to the link under the given listen
// address; frames in both directions consult it in delivery order. A nil
// plan heals the link. Existing connections pick the plan up immediately.
func (n *Network) SetFaults(addr string, p *Plan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p == nil {
		delete(n.plans, addr)
		return
	}
	n.plans[addr] = p
}

func (n *Network) planFor(addr string) *Plan {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.plans[addr]
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition severs the pair of hosts (a, b): existing connections between
// them are closed, and new dials are refused with ErrPartitioned until
// Heal. Hosts are the names given to DialFrom and Listen; the plain Dial
// entry point is the anonymous host "".
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.parts[pairKey(a, b)] = struct{}{}
	var victims []*shapedConn
	for c := range n.conns {
		if pairKey(c.src, c.dst) == pairKey(a, b) {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		_ = c.Close()
	}
}

// Heal removes the partition between hosts a and b; subsequent dials
// succeed again. Connections closed by the partition stay closed.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, pairKey(a, b))
}

// Partitioned reports whether the pair (a, b) is currently severed.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.parts[pairKey(a, b)]
	return ok
}

// Errors reported by the simulated network.
var (
	// ErrAddrInUse is reported when a listen point name is taken.
	ErrAddrInUse = errors.New("netsim: address already in use")
	// ErrConnRefused is reported when dialing an address nobody listens on.
	ErrConnRefused = errors.New("netsim: connection refused")
	// ErrClosed is reported after Close.
	ErrClosed = errors.New("netsim: use of closed network")
)

// Listen creates a listen point under the given name.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &listener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listen point as the anonymous host "".
func (n *Network) Dial(addr string) (net.Conn, error) {
	return n.DialFrom("", addr)
}

// DialFrom connects to a listen point, identifying the dialing side as
// host src so the connection participates in Partition decisions.
func (n *Network) DialFrom(src, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if _, cut := n.parts[pairKey(src, addr)]; cut {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, src, addr)
	}
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client, server := net.Pipe()
	cc := &shapedConn{Conn: client, net: n, profile: n.profile, src: src, dst: addr}
	sc := &shapedConn{Conn: server, net: n, profile: n.profile, src: src, dst: addr}
	n.mu.Lock()
	n.conns[cc] = struct{}{}
	n.conns[sc] = struct{}{}
	n.mu.Unlock()
	select {
	case l.accept <- sc:
		return cc, nil
	case <-l.done:
		_ = cc.Close()
		_ = sc.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
}

// Close shuts the network down; existing conns keep working until closed
// individually.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, l := range n.listeners {
		l.closeLocked()
	}
	n.listeners = make(map[string]*listener)
	return nil
}

type listener struct {
	net    *Network
	addr   string
	accept chan net.Conn

	once sync.Once
	done chan struct{}
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *listener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	l.closeLocked()
	if l.net.listeners[l.addr] == l {
		delete(l.net.listeners, l.addr)
	}
	return nil
}

func (l *listener) closeLocked() {
	l.once.Do(func() { close(l.done) })
}

func (l *listener) Addr() net.Addr { return simAddr(l.addr) }

type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

// shapedConn delays each Write by the link's delivery cost for the message
// size, applies the link's fault plan, and records traffic. One Write is one
// message of whole transport frames, so a fault hits the message: a sever
// cuts the frame it lands in and every frame behind it.
type shapedConn struct {
	net.Conn
	net      *Network
	profile  Profile
	src, dst string // link endpoints; dst is the listen address keying the plan
}

// Close deregisters the conn half and closes the underlying pipe.
func (c *shapedConn) Close() error {
	c.net.mu.Lock()
	delete(c.net.conns, c)
	c.net.mu.Unlock()
	return c.Conn.Close()
}

func (c *shapedConn) Write(p []byte) (int, error) {
	if c.net.Partitioned(c.src, c.dst) {
		return 0, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, c.src, c.dst)
	}
	var d decision
	plan := c.net.planFor(c.dst)
	if plan != nil {
		d = plan.next(len(p))
	}
	if delay := c.profile.Delay(len(p)) + d.delay; delay > 0 {
		time.Sleep(delay)
	}
	if d.delay > 0 {
		c.net.delayed.Add(1)
	}
	if d.drop {
		// The frame paid its transit cost and vanished; the caller sees a
		// successful send, the peer sees nothing — message loss.
		c.net.dropped.Add(1)
		return len(p), nil
	}
	if d.sever {
		cut := d.severCut
		if cut >= len(p) {
			cut = len(p) - 1
		}
		var wrote int
		if cut > 0 {
			c.net.bytes.Add(int64(cut))
			wrote, _ = c.Conn.Write(p[:cut])
		}
		c.net.severed.Add(1)
		_ = c.Close()
		return wrote, fmt.Errorf("%w: %d of %d bytes delivered", ErrSevered, wrote, len(p))
	}
	out := p
	if d.corrupt {
		out = plan.CorruptBytes(p)
		c.net.corrupted.Add(1)
	}
	// Count before writing: a synchronous pipe can schedule the reader's
	// continuation (and a Stats observer) before this goroutine resumes.
	if len(out) > 0 {
		c.net.bytes.Add(int64(len(out)))
		c.net.messages.Add(1)
	}
	n, err := c.Conn.Write(out)
	if err != nil && n < len(out) {
		c.net.bytes.Add(int64(n - len(out)))
	}
	if err == nil && d.duplicate {
		c.net.duplicated.Add(1)
		c.net.bytes.Add(int64(len(out)))
		c.net.messages.Add(1)
		if _, derr := c.Conn.Write(out); derr != nil {
			c.net.bytes.Add(int64(-len(out)))
			c.net.messages.Add(-1)
		}
	}
	return n, err
}
