package rmi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nrmi/internal/registry"
)

// hostileLeases are the Dirty leases the server must refuse with ErrBadDGC,
// the export and its lease left as they were. FuzzHandleCall starts from
// them too.
var hostileLeases = []struct {
	name string
	secs uint64
}{
	{"lease one second past the maximum", uint64(MaxLease/time.Second) + 1},
	{"lease that wraps time.Duration negative", 9_223_372_037},
	{"lease of 2^64-1 seconds", 1<<64 - 1},
}

// leaseOf reads export id's lease expiry; false once it was collected.
func leaseOf(s *Server, id uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.refs[id]
	if !ok {
		return time.Time{}, false
	}
	return e.expiry, true
}

// dgcCall makes one call on the "#dgc" export of a server holding one
// anonymous export, id 1, and holds the DGC to its contract: a refusal
// leaves the export and its lease untouched; an accepted call left the
// export collected (Clean) or leased for between zero and MaxLease from
// now — never in the past.
func dgcCall(t *testing.T, method string, args ...any) error {
	t.Helper()
	e := newEnv(t)
	if ref, err := e.clSrv.Ref(&Counter{}); err != nil || ref.ID != 1 {
		t.Fatalf("Ref = %v, %v; want id 1", ref, err)
	}
	before, _ := leaseOf(e.clSrv, 1)
	start := time.Now()
	_, err := e.client.Stub("client", dgcName).Call(context.Background(), method, args...)
	after, live := leaseOf(e.clSrv, 1)
	switch {
	case err != nil:
		if !live || !after.Equal(before) {
			t.Fatalf("%s%v: refused (%v) but the export changed: live=%v lease %v -> %v", method, args, err, live, before, after)
		}
	case live && (after.Before(start) || after.After(time.Now().Add(MaxLease))):
		t.Fatalf("%s%v: accepted, lease now ends %v from now", method, args, time.Until(after))
	}
	return err
}

// TestHandleDGCHostile: the DGC refuses a lease past MaxLease with
// ErrBadDGC, a wrong-typed or missing argument with ErrBadArgument and an
// unknown method with ErrNoSuchMethod, changing nothing; it accepts Clean
// and Dirty of any id, a no-op for one it does not export.
func TestHandleDGCHostile(t *testing.T) {
	for _, tc := range hostileLeases {
		t.Run(tc.name, func(t *testing.T) {
			if err := dgcCall(t, "Dirty", uint64(1), tc.secs); err == nil || !strings.Contains(err.Error(), ErrBadDGC.Error()) {
				t.Fatalf("Dirty(1, %d) = %v, want ErrBadDGC", tc.secs, err)
			}
		})
	}
	for _, tc := range []struct {
		method string
		args   []any
		want   error
	}{
		{"Dirty", []any{1, uint64(60)}, ErrBadArgument},
		{"Dirty", []any{uint64(1), "60"}, ErrBadArgument},
		{"Dirty", []any{uint64(1)}, ErrBadArgument},
		{"Clean", []any{-1}, ErrBadArgument},
		{"Free", []any{uint64(1)}, ErrNoSuchMethod},
	} {
		if err := dgcCall(t, tc.method, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want.Error()) {
			t.Fatalf("%s%v = %v, want %v", tc.method, tc.args, err, tc.want)
		}
	}
	for _, ok := range []struct {
		method string
		args   []any
	}{
		{"Clean", []any{uint64(1)}},
		{"Clean", []any{uint64(7)}},
		{"Dirty", []any{uint64(7), uint64(60)}},
		{"Dirty", []any{uint64(1), uint64(1)}},
		{"Dirty", []any{uint64(1), uint64(MaxLease / time.Second)}},
	} {
		if err := dgcCall(t, ok.method, ok.args...); err != nil {
			t.Fatalf("%s%v refused: %v", ok.method, ok.args, err)
		}
	}
}

// TestReservedExportsStay: "#registry" and "#dgc" can be neither replaced
// by Export nor removed by Unexport.
func TestReservedExportsStay(t *testing.T) {
	e := newEnv(t)
	e.clSrv.EnableRegistry()
	for _, name := range []string{registryName, dgcName} {
		if err := e.clSrv.Export(name, &TreeService{}); err == nil {
			t.Fatalf("Export(%q) succeeded", name)
		}
		e.clSrv.Unexport(name)
	}
	ctx := context.Background()
	reg := e.client.Registry("client")
	want := registry.Entry{Name: "svc", Addr: "server", Object: "trees"}
	if err := reg.Bind(ctx, want); err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Lookup(ctx, "svc"); err != nil || got != want {
		t.Fatalf("Lookup = %+v, %v", got, err)
	}
	ref, err := e.clSrv.Ref(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.client.Release(ctx, ref); err != nil || e.clSrv.LiveRefs() != 0 {
		t.Fatalf("Release = %v, %d live", err, e.clSrv.LiveRefs())
	}
}

// TestRenewLeaseBounds: Client.Renew refuses a lease outside (0, MaxLease]
// before sending anything — uint64(lease/time.Second) made 1.8e19 seconds of
// -1s, which the server wrapped into the past — and rounds a positive one up
// to whole seconds, where 900ms used to travel as 0. No value makes the next
// sweep collect an export that is still held.
func TestRenewLeaseBounds(t *testing.T) {
	for _, tc := range []struct {
		lease  time.Duration
		refuse bool
		until  time.Duration // an accepted lease is still live this far ahead
	}{
		{lease: -time.Second, refuse: true},
		{lease: 0, refuse: true},
		{lease: time.Nanosecond, until: 900 * time.Millisecond},
		{lease: 900 * time.Millisecond, until: 900 * time.Millisecond},
		{lease: 1500 * time.Millisecond, until: 1900 * time.Millisecond},
		{lease: MaxLease, until: MaxLease - time.Second},
		{lease: MaxLease + 1, refuse: true},
		{lease: 1<<63 - 1, refuse: true},
	} {
		t.Run(tc.lease.String(), func(t *testing.T) {
			e := newEnv(t)
			ref, err := e.clSrv.Ref(&Counter{})
			if err != nil {
				t.Fatal(err)
			}
			err = mustServerClient(t, e).Renew(context.Background(), ref, tc.lease)
			if tc.refuse != errors.Is(err, ErrBadDGC) || (!tc.refuse && err != nil) {
				t.Fatalf("Renew(%v) = %v, refuse=%v", tc.lease, err, tc.refuse)
			}
			if tc.refuse {
				tc.until = defaultLease - time.Second
			}
			if n := e.clSrv.SweepLeases(time.Now().Add(tc.until)); n != 0 {
				t.Fatalf("Renew(%v): a sweep %v later collected %d live exports", tc.lease, tc.until, n)
			}
			if n := e.clSrv.SweepLeases(time.Now().Add(MaxLease + time.Second)); n != 1 {
				t.Fatalf("a sweep past every lease collected %d, want 1", n)
			}
		})
	}
}

// TestLeaseSweeperNonPositiveInterval: StartLeaseSweeper(0) and (-1s)
// return without starting a sweeper (a ticker of such an interval panics
// in its goroutine), and SweepLeases still collects by hand.
func TestLeaseSweeperNonPositiveInterval(t *testing.T) {
	e := newEnv(t)
	ref, err := e.clSrv.Ref(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	e.clSrv.StartLeaseSweeper(0)
	e.clSrv.StartLeaseSweeper(-time.Second)
	if e.clSrv.sweepStop != nil {
		t.Fatal("a non-positive interval started a sweeper")
	}
	if err := (&dgc{e.clSrv}).Dirty(ref.ID, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.clSrv.SweepLeases(time.Now().Add(time.Millisecond)); n != 1 {
		t.Fatalf("SweepLeases collected %d, want 1", n)
	}
}
