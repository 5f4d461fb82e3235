// Package registry implements NRMI's naming service, the analog of Java
// RMI's rmiregistry: a table mapping service names to (network address,
// exported object) pairs. Like java.rmi.registry.Registry it is an
// ordinary remote object: an rmi server serves a Server as one of its
// exports (rmi.Server.EnableRegistry), and a Client reaches it through a
// stub's call function.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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
	// ErrBadReply is reported by a Client for a reply that is not the one
	// result of the type the operation returns.
	ErrBadReply = errors.New("registry: malformed reply")
)

// Server is the naming service. Its zero value is an empty registry; its
// methods are what a Client calls remotely.
type Server struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// Bind registers a new name; it fails with ErrAlreadyBound for duplicates.
func (s *Server) Bind(e Entry) error { return s.put(e, false) }

// Rebind registers a name, replacing any existing binding.
func (s *Server) Rebind(e Entry) error { return s.put(e, true) }

func (s *Server) put(e Entry, replace bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[e.Name]; exists && !replace {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, e.Name)
	}
	if s.entries == nil {
		s.entries = make(map[string]Entry)
	}
	s.entries[e.Name] = e
	return nil
}

// Lookup resolves a name to its binding.
func (s *Server) Lookup(name string) (Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotBound, name)
	}
	return e, nil
}

// Unbind removes a binding.
func (s *Server) Unbind(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotBound, name)
	}
	delete(s.entries, name)
	return nil
}

// List returns all bound names, sorted.
func (s *Server) List() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// CallFunc invokes one method of a remote Server; rmi.Stub.Call has this
// signature.
type CallFunc func(ctx context.Context, method string, args ...any) ([]any, error)

// Client calls a remote Server's methods through a CallFunc.
type Client struct{ call CallFunc }

// NewClient returns a client issuing its operations through call.
func NewClient(call CallFunc) *Client { return &Client{call: call} }

// Bind registers a new name; it fails with ErrAlreadyBound for duplicates.
func (c *Client) Bind(ctx context.Context, e Entry) error {
	_, err := c.call(ctx, "Bind", e)
	return mapRemoteError(err)
}

// Rebind registers a name, replacing any existing binding.
func (c *Client) Rebind(ctx context.Context, e Entry) error {
	_, err := c.call(ctx, "Rebind", e)
	return mapRemoteError(err)
}

// Lookup resolves a name to its binding.
func (c *Client) Lookup(ctx context.Context, name string) (Entry, error) {
	rets, err := c.call(ctx, "Lookup", name)
	return result[Entry]("Lookup", rets, err)
}

// Unbind removes a binding.
func (c *Client) Unbind(ctx context.Context, name string) error {
	_, err := c.call(ctx, "Unbind", name)
	return mapRemoteError(err)
}

// List returns all bound names, sorted.
func (c *Client) List(ctx context.Context) ([]string, error) {
	rets, err := c.call(ctx, "List")
	return result[[]string]("List", rets, err)
}

// result is a call's one result as a T.
func result[T any](method string, rets []any, err error) (T, error) {
	var v T
	if err != nil {
		return v, mapRemoteError(err)
	}
	if len(rets) != 1 {
		return v, fmt.Errorf("%w: %s returned %d results", ErrBadReply, method, len(rets))
	}
	v, ok := rets[0].(T)
	if !ok {
		return v, fmt.Errorf("%w: %s returned a %T", ErrBadReply, method, rets[0])
	}
	return v, nil
}

// mapRemoteError converts transport.RemoteError texts carrying registry
// sentinel messages back into the matching sentinel errors, so errors.Is
// works across the network.
func mapRemoteError(err error) error {
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	for _, sentinel := range []error{ErrAlreadyBound, ErrNotBound} {
		if strings.Contains(re.Msg, sentinel.Error()) {
			return fmt.Errorf("%w (%s)", sentinel, re.Msg)
		}
	}
	return err
}
