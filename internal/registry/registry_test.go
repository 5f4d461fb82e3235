package registry

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"

	"nrmi/internal/netsim"
	"nrmi/internal/transport"
)

func startRegistry(t *testing.T) *Client {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	ln, err := n.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	nc, err := n.Dial("registry")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(transport.NewConn(nc))
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBindLookup(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	e := Entry{Name: "translator", Addr: "host-b", Object: "Translator"}
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
	e := Entry{Name: "svc", Addr: "a", Object: "O"}
	if err := c.Bind(ctx, e); err != nil {
		t.Fatal(err)
	}
	err := c.Bind(ctx, Entry{Name: "svc", Addr: "b", Object: "P"})
	if !errors.Is(err, ErrAlreadyBound) {
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
	if err := c.Bind(ctx, Entry{Name: "svc", Addr: "a", Object: "O"}); err != nil {
		t.Fatal(err)
	}
	e2 := Entry{Name: "svc", Addr: "b", Object: "P"}
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
	if !errors.Is(err, ErrNotBound) {
		t.Fatalf("want ErrNotBound, got %v", err)
	}
}

func TestUnbind(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	if err := c.Bind(ctx, Entry{Name: "svc", Addr: "a", Object: "O"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unbind(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "svc"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("want ErrNotBound after unbind, got %v", err)
	}
	if err := c.Unbind(ctx, "svc"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("double unbind: want ErrNotBound, got %v", err)
	}
}

func TestListSorted(t *testing.T) {
	c := startRegistry(t)
	ctx := context.Background()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := c.Bind(ctx, Entry{Name: name, Addr: "a", Object: "O"}); err != nil {
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
	e := Entry{Name: "n", Addr: "", Object: ""}
	if err := c.Bind(ctx, e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "n")
	if err != nil || got != e {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestMalformedPayloadRejected(t *testing.T) {
	s := NewServer()
	if _, err := s.Handle(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty payload: want ErrBadRequest, got %v", err)
	}
	if _, err := s.Handle([]byte{99}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op: want ErrBadRequest, got %v", err)
	}
	if _, err := s.Handle([]byte{opLookup, 0xFF}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated string: want ErrBadRequest, got %v", err)
	}
}

func TestDialHelper(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback())
	defer n.Close()
	ln, err := n.Listen("reg")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(func() (net.Conn, error) { return n.Dial("reg") })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind(context.Background(), Entry{Name: "x", Addr: "a", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	// Dial failure propagates.
	if _, err := Dial(func() (net.Conn, error) { return nil, errors.New("nope") }); err == nil {
		t.Fatal("dial error must propagate")
	}
}

// msg spells a registry payload: each part a raw byte, a uvarint count
// (uint64) or a length-prefixed string.
func msg(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case byte:
			b = append(b, p)
		case uint64:
			b = binary.AppendUvarint(b, p)
		case string:
			b = append(binary.AppendUvarint(b, uint64(len(p))), p...)
		}
	}
	return b
}

// hostileBodies are message bodies no parser of this package may accept,
// allocate for, or panic on: what follows a request's op byte, or a whole
// List or Lookup reply. FuzzRegistryHandle starts from them.
var hostileBodies = []struct {
	name string
	body []byte
}{
	{"count of 2^62 in nine bytes", msg(uint64(1) << 62)},
	{"count of 2^30, no names", msg(uint64(1) << 30)},
	{"count one past the names", msg(uint64(4), "a", "b", "c")},
	{"string length past the payload", msg(uint64(3), "a", uint64(200), byte('b'))},
	{"string length of 2^63", msg(uint64(1), uint64(1)<<63)},
	{"truncated varint", []byte{0x80}},
	{"overlong varint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	{"trailing bytes after a list", msg(uint64(1), "a", byte(0))},
	{"trailing bytes after an entry", msg("n", "addr", "obj", byte(0))},
	{"entry cut short", msg("n", "addr")},
}

// TestHostileReplies: a registry that answers List or Lookup with any of
// hostileBodies gets ErrBadRequest from the client — the first row used to
// end the calling process in makeslice — and the reply payload goes back to
// the pool (the package's leak ledger).
func TestHostileReplies(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	ln, err := n.Listen("hostile")
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	srv := transport.Serve(ln, func(context.Context, byte, []byte) ([]byte, error) { return reply, nil })
	t.Cleanup(func() { srv.Close() })
	nc, err := n.Dial("hostile")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(transport.NewConn(nc))
	t.Cleanup(func() { c.Close() })

	for _, tc := range hostileBodies {
		reply = tc.body
		if names, err := c.List(context.Background()); !errors.Is(err, ErrBadRequest) || names != nil {
			t.Errorf("List, %s: %v, %v; want ErrBadRequest", tc.name, names, err)
		}
		if e, err := c.Lookup(context.Background(), "n"); !errors.Is(err, ErrBadRequest) || e != (Entry{}) {
			t.Errorf("Lookup, %s: %+v, %v; want ErrBadRequest", tc.name, e, err)
		}
	}
}

// TestHostileRequests is the same table against Server.Handle, under every
// op: refused with ErrBadRequest, nothing bound.
func TestHostileRequests(t *testing.T) {
	s := NewServer()
	for _, tc := range hostileBodies {
		for op := opBind; op <= opList; op++ {
			if _, err := s.Handle(append([]byte{op}, tc.body...)); !errors.Is(err, ErrBadRequest) {
				t.Errorf("op %d, %s: %v, want ErrBadRequest", op, tc.name, err)
			}
		}
	}
	if len(s.entries) != 0 {
		t.Fatalf("hostile requests bound %v", s.entries)
	}
}

// FuzzRegistryHandle: no request panics the naming service; a refusal is
// one of its three sentinels, and whatever it accepts and then lists, the
// client's List parser accepts back.
func FuzzRegistryHandle(f *testing.F) {
	for _, tc := range hostileBodies {
		for op := opBind; op <= opList; op++ {
			f.Add(append([]byte{op}, tc.body...))
		}
	}
	f.Add(msg(opBind, "n", "addr", "obj"))
	f.Add(msg(opLookup, "n"))
	f.Add([]byte{opList})
	f.Fuzz(func(t *testing.T, payload []byte) {
		s := NewServer()
		s.entries["n"] = Entry{Name: "n", Addr: "a", Object: "o"}
		_, err := s.Handle(payload)
		if err != nil && !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrNotBound) && !errors.Is(err, ErrAlreadyBound) {
			t.Fatalf("% x: untyped refusal %v", payload, err)
		}
		listing, err := s.Handle([]byte{opList})
		if err != nil {
			t.Fatal(err)
		}
		if names, err := parseList(listing); err != nil || len(names) != len(s.entries) {
			t.Fatalf("after % x the listing % x parses as %v, %v", payload, listing, names, err)
		}
	})
}
