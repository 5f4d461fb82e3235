// Package registry implements NRMI's naming service, the analog of Java
// RMI's rmiregistry: a small server mapping service names to (network
// address, exported object) pairs, plus a client for bind/lookup/unbind
// operations, all over the transport protocol's MsgRegistry frames.
package registry

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"nrmi/internal/transport"
)

// Entry is one name binding.
type Entry struct {
	// Name is the service name clients look up.
	Name string
	// Addr is the network address of the exporting server.
	Addr string
	// Object is the exported object's name within that server.
	Object string
}

// Errors reported by the naming service.
var (
	// ErrAlreadyBound is reported by Bind when the name is taken.
	ErrAlreadyBound = errors.New("registry: name already bound")
	// ErrNotBound is reported by Lookup and Unbind for unknown names.
	ErrNotBound = errors.New("registry: name not bound")
	// ErrBadRequest is reported for malformed registry frames.
	ErrBadRequest = errors.New("registry: malformed request")
)

// Operation codes.
const (
	opBind byte = iota + 1
	opRebind
	opLookup
	opUnbind
	opList
)

// Server is the naming service.
type Server struct {
	mu      sync.RWMutex
	entries map[string]Entry
	tsrv    *transport.Server
}

// NewServer returns an empty naming service.
func NewServer() *Server {
	return &Server{entries: make(map[string]Entry)}
}

// Serve starts answering registry requests on ln. Call Close to stop.
func (s *Server) Serve(ln net.Listener) {
	s.tsrv = transport.Serve(ln, s.handle)
}

// Close stops the server if it is serving.
func (s *Server) Close() error {
	if s.tsrv == nil {
		return nil
	}
	return s.tsrv.Close()
}

// Handle processes one registry request payload; exported so composite
// servers (an rmi.Server acting as its own registry) can embed the naming
// service on their existing listener.
func (s *Server) Handle(payload []byte) ([]byte, error) {
	return s.handle(context.Background(), transport.MsgRegistry, payload)
}

func (s *Server) handle(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
	if msgType != transport.MsgRegistry {
		return nil, fmt.Errorf("%w: unexpected message type %d", ErrBadRequest, msgType)
	}
	r := bytes.NewReader(payload)
	op, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: empty payload", ErrBadRequest)
	}
	switch op {
	case opBind, opRebind:
		e, err := readEntry(r)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, exists := s.entries[e.Name]; exists && op == opBind {
			return nil, fmt.Errorf("%w: %q", ErrAlreadyBound, e.Name)
		}
		s.entries[e.Name] = e
		return nil, nil
	case opLookup:
		name, err := readStrings(r, 1)
		if err != nil {
			return nil, err
		}
		s.mu.RLock()
		e, ok := s.entries[name[0]]
		s.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotBound, name[0])
		}
		var buf bytes.Buffer
		writeEntry(&buf, e)
		return buf.Bytes(), nil
	case opUnbind:
		name, err := readStrings(r, 1)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.entries[name[0]]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotBound, name[0])
		}
		delete(s.entries, name[0])
		return nil, nil
	case opList:
		if _, err := readStrings(r, 0); err != nil {
			return nil, err
		}
		s.mu.RLock()
		names := make([]string, 0, len(s.entries))
		for n := range s.entries {
			names = append(names, n)
		}
		s.mu.RUnlock()
		sort.Strings(names)
		var buf bytes.Buffer
		writeUvarint(&buf, uint64(len(names)))
		for _, n := range names {
			writeString(&buf, n)
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadRequest, op)
	}
}

// Client talks to a naming service over an established transport conn.
type Client struct {
	conn *transport.Conn
}

// NewClient wraps an established transport connection.
func NewClient(conn *transport.Conn) *Client { return &Client{conn: conn} }

// Dial connects to a naming service over the given dialer.
func Dial(dial func() (net.Conn, error)) (*Client, error) {
	nc, err := dial()
	if err != nil {
		return nil, err
	}
	return NewClient(transport.NewConn(nc)), nil
}

// Close releases the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Bind registers a new name; it fails with ErrAlreadyBound for duplicates.
func (c *Client) Bind(ctx context.Context, e Entry) error {
	return c.bindOp(ctx, opBind, e)
}

// Rebind registers a name, replacing any existing binding.
func (c *Client) Rebind(ctx context.Context, e Entry) error {
	return c.bindOp(ctx, opRebind, e)
}

func (c *Client) bindOp(ctx context.Context, op byte, e Entry) error {
	var buf bytes.Buffer
	buf.WriteByte(op)
	writeEntry(&buf, e)
	reply, err := c.conn.Call(ctx, transport.MsgRegistry, buf.Bytes())
	transport.ReleasePayload(reply)
	return mapRemoteError(err)
}

// Lookup resolves a name to its binding.
func (c *Client) Lookup(ctx context.Context, name string) (Entry, error) {
	var buf bytes.Buffer
	buf.WriteByte(opLookup)
	writeString(&buf, name)
	reply, err := c.conn.Call(ctx, transport.MsgRegistry, buf.Bytes())
	if err != nil {
		return Entry{}, mapRemoteError(err)
	}
	// readEntry copies its strings out of reply.
	defer transport.ReleasePayload(reply)
	return readEntry(bytes.NewReader(reply))
}

// Unbind removes a binding.
func (c *Client) Unbind(ctx context.Context, name string) error {
	var buf bytes.Buffer
	buf.WriteByte(opUnbind)
	writeString(&buf, name)
	reply, err := c.conn.Call(ctx, transport.MsgRegistry, buf.Bytes())
	transport.ReleasePayload(reply)
	return mapRemoteError(err)
}

// List returns all bound names, sorted.
func (c *Client) List(ctx context.Context) ([]string, error) {
	reply, err := c.conn.Call(ctx, transport.MsgRegistry, []byte{opList})
	if err != nil {
		return nil, mapRemoteError(err)
	}
	defer transport.ReleasePayload(reply)
	return parseList(reply)
}

// parseList reads a List reply: a count, then that many names, copied out.
func parseList(reply []byte) ([]string, error) {
	r := bytes.NewReader(reply)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return readStrings(r, n)
}

// mapRemoteError converts transport.RemoteError texts carrying registry
// sentinel messages back into the matching sentinel errors, so errors.Is
// works across the network.
func mapRemoteError(err error) error {
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch {
	case containsSentinel(re.Msg, ErrAlreadyBound):
		return fmt.Errorf("%w (%s)", ErrAlreadyBound, re.Msg)
	case containsSentinel(re.Msg, ErrNotBound):
		return fmt.Errorf("%w (%s)", ErrNotBound, re.Msg)
	default:
		return err
	}
}

func containsSentinel(msg string, sentinel error) bool {
	return bytes.Contains([]byte(msg), []byte(sentinel.Error()))
}

// Payload primitives: uvarint-prefixed strings.

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("%w: string length %d exceeds payload", ErrBadRequest, n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return string(p), nil
}

// readStrings reads the rest of a message as exactly n strings. Every string
// costs at least its length byte, so a count the payload cannot hold is
// refused before it sizes an allocation; so are bytes left over.
func readStrings(r *bytes.Reader, n uint64) ([]string, error) {
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: %d strings in %d bytes", ErrBadRequest, n, r.Len())
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRequest, r.Len())
	}
	return out, nil
}

func writeEntry(buf *bytes.Buffer, e Entry) {
	writeString(buf, e.Name)
	writeString(buf, e.Addr)
	writeString(buf, e.Object)
}

// readEntry reads a message that is one entry.
func readEntry(r *bytes.Reader) (Entry, error) {
	f, err := readStrings(r, 3)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Name: f[0], Addr: f[1], Object: f[2]}, nil
}
