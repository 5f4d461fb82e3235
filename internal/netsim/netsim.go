// Package netsim is an in-process network: named listen points joined by
// synchronous pipes, with byte/message accounting, seeded fault plans and
// partitions.
//
// A message is one Write of one or more whole transport frames. The table
// harness computes the paper's testbed (two machines on a 100 Mbps LAN,
// Section 5.3.3) from the bytes and messages counted here, which are
// hardware-independent. A link takes time only when its fault plan delays
// a frame, so an experiment that needs the wire's time to pass, such as
// pipelining, attaches a plan with a Delay rate to each address its calls
// cross.
package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

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

// Network is an in-process network: named listen points joined by
// synchronous pipes. The zero value is not usable; call NewNetwork.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener
	plans     map[string]*Plan       // listen addr -> fault plan for that link
	parts     map[[2]string]struct{} // partitioned host pairs, sorted
	conns     map[*simConn]struct{}  // live conn halves, for partition severing
	closed    bool

	bytes    atomic.Int64
	messages atomic.Int64

	dropped    atomic.Int64
	delayed    atomic.Int64
	duplicated atomic.Int64
	corrupted  atomic.Int64
	severed    atomic.Int64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[string]*listener),
		plans:     make(map[string]*Plan),
		parts:     make(map[[2]string]struct{}),
		conns:     make(map[*simConn]struct{}),
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
	var victims []*simConn
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
	cc := &simConn{Conn: client, net: n, src: src, dst: addr}
	sc := &simConn{Conn: server, net: n, src: src, dst: addr}
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

// simConn applies the link's fault plan to each Write and records
// traffic. One Write is one message of whole transport frames, so a fault
// hits the message: a delay holds it, and a sever cuts the frame it lands
// in and every frame behind it.
type simConn struct {
	net.Conn
	net      *Network
	src, dst string // link endpoints; dst is the listen address keying the plan
}

// Close deregisters the conn half and closes the underlying pipe.
func (c *simConn) Close() error {
	c.net.mu.Lock()
	delete(c.net.conns, c)
	c.net.mu.Unlock()
	return c.Conn.Close()
}

func (c *simConn) Write(p []byte) (int, error) {
	if c.net.Partitioned(c.src, c.dst) {
		return 0, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, c.src, c.dst)
	}
	var d decision
	plan := c.net.planFor(c.dst)
	if plan != nil {
		d = plan.next(len(p))
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
		c.net.delayed.Add(1)
	}
	if d.drop {
		// The frame vanished; the caller sees a
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
