package registry_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/registry"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// startRegistry serves a naming service from an rmi server, the way a
// registry is served, and returns a client of it over a netsim link.
func startRegistry(t *testing.T) *registry.Client {
	t.Helper()
	opts := rmi.Options{Core: core.Options{Registry: wire.NewRegistry()}}
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	ln, err := n.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rmi.NewServer("registry", opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableRegistry()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := rmi.NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl.Registry("registry")
}

func TestBindLookup(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	e := registry.Entry{Name: "translator", Addr: "host-b", Object: "Translator"}
	if err := c.Bind(ctx, e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "translator")
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("lookup = %+v, want %+v", got, e)
	}
}

func TestBindDuplicateFails(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	e := registry.Entry{Name: "svc", Addr: "a", Object: "O"}
	if err := c.Bind(ctx, e); err != nil {
		t.Fatal(err)
	}
	err := c.Bind(ctx, registry.Entry{Name: "svc", Addr: "b", Object: "P"})
	if !errors.Is(err, registry.ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound across the wire, got %v", err)
	}
	// The original binding must be intact.
	got, err := c.Lookup(ctx, "svc")
	if err != nil || got != e {
		t.Fatalf("binding clobbered: %+v, %v", got, err)
	}
}

func TestRebindReplaces(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	if err := c.Bind(ctx, registry.Entry{Name: "svc", Addr: "a", Object: "O"}); err != nil {
		t.Fatal(err)
	}
	e2 := registry.Entry{Name: "svc", Addr: "b", Object: "P"}
	if err := c.Rebind(ctx, e2); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "svc")
	if err != nil || got != e2 {
		t.Fatalf("rebind lost: %+v, %v", got, err)
	}
}

func TestLookupMissing(t *testing.T) {
	c := startRegistry(t)
	_, err := c.Lookup(context.Background(), "ghost")
	if !errors.Is(err, registry.ErrNotBound) {
		t.Fatalf("want ErrNotBound, got %v", err)
	}
}

func TestUnbind(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	if err := c.Bind(ctx, registry.Entry{Name: "svc", Addr: "a", Object: "O"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unbind(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "svc"); !errors.Is(err, registry.ErrNotBound) {
		t.Fatalf("want ErrNotBound after unbind, got %v", err)
	}
	if err := c.Unbind(ctx, "svc"); !errors.Is(err, registry.ErrNotBound) {
		t.Fatalf("double unbind: want ErrNotBound, got %v", err)
	}
}

func TestListSorted(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := c.Bind(ctx, registry.Entry{Name: name, Addr: "a", Object: "O"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
}

func TestListEmpty(t *testing.T) {
	c := startRegistry(t)
	got, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty registry listed %v", got)
	}
}

func TestEmptyStringsSurvive(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	e := registry.Entry{Name: "", Addr: "", Object: ""}
	if err := c.Bind(ctx, e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "")
	if err != nil || got != e {
		t.Fatalf("got %+v, %v", got, err)
	}
	if names, err := c.List(ctx); err != nil || !reflect.DeepEqual(names, []string{""}) {
		t.Fatalf("list = %q, %v", names, err)
	}
}

// TestHostileReplies: a Client whose call returns anything but one result
// of the operation's type refuses it with ErrBadReply, and passes a call's
// own error through.
func TestHostileReplies(t *testing.T) {
	callErr := errors.New("link down")
	for _, tc := range []struct {
		name string
		rets []any
		err  error
		want error
	}{
		{"no results", nil, nil, registry.ErrBadReply},
		{"two results", []any{registry.Entry{}, []string{}}, nil, registry.ErrBadReply},
		{"nil result", []any{nil}, nil, registry.ErrBadReply},
		{"wrong type", []any{42}, nil, registry.ErrBadReply},
		{"call error", nil, callErr, callErr},
	} {
		c := registry.NewClient(func(context.Context, string, ...any) ([]any, error) { return tc.rets, tc.err })
		if e, err := c.Lookup(context.Background(), "n"); !errors.Is(err, tc.want) || e != (registry.Entry{}) {
			t.Errorf("Lookup, %s: %+v, %v; want %v", tc.name, e, err, tc.want)
		}
		if names, err := c.List(context.Background()); !errors.Is(err, tc.want) || names != nil {
			t.Errorf("List, %s: %v, %v; want %v", tc.name, names, err, tc.want)
		}
	}
}
