package rmi

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// dgcMsg spells a DGC payload: the op byte, then each value as a uvarint.
func dgcMsg(op byte, vs ...uint64) []byte {
	b := []byte{op}
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// overlong is an eleven-byte uvarint: more than 64 bits.
var overlong = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}

// hostileDGC is every DGC payload the server must refuse with ErrBadDGC,
// the export (id 1) and its lease left as they were. FuzzHandleDGC starts
// from it.
var hostileDGC = []struct {
	name    string
	payload []byte
}{
	{"empty", nil},
	{"op only", []byte{dgcDirty}},
	{"clean, no id", []byte{dgcClean}},
	{"truncated id", []byte{dgcDirty, 0x80}},
	{"overlong id", append([]byte{dgcClean}, overlong...)},
	{"dirty, no lease", dgcMsg(dgcDirty, 1)},
	{"truncated lease", append(dgcMsg(dgcDirty, 1), 0x80, 0x80)},
	{"overlong lease", append(dgcMsg(dgcDirty, 1), overlong...)},
	{"unknown op 0", dgcMsg(0, 1)},
	{"unknown op 9", dgcMsg(9, 1, 60)},
	{"lease one second past the maximum", dgcMsg(dgcDirty, 1, uint64(MaxLease/time.Second)+1)},
	{"lease that wraps time.Duration negative", dgcMsg(dgcDirty, 1, 9_223_372_037)},
	{"lease of 2^64-1 seconds", dgcMsg(dgcDirty, 1, 1<<64-1)},
	{"dirty with a trailing byte", append(dgcMsg(dgcDirty, 1, 60), 0)},
	{"clean with a trailing byte", append(dgcMsg(dgcClean, 1), 0)},
}

// dgcServer returns an unserved server holding one anonymous export, id 1.
func dgcServer(t testing.TB) *Server {
	t.Helper()
	srv, err := NewServer("dgc", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref, err := srv.Ref(&Counter{}); err != nil || ref.ID != 1 {
		t.Fatalf("Ref = %v, %v; want id 1", ref, err)
	}
	return srv
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

// checkDGC runs one payload against a fresh export and holds handleDGC to
// its contract: a refusal is ErrBadDGC with the export and its lease
// untouched; an accepted message left the export collected (clean) or
// leased for between zero and MaxLease from now — never in the past.
func checkDGC(t *testing.T, payload []byte) error {
	t.Helper()
	srv := dgcServer(t)
	before, _ := leaseOf(srv, 1)
	start := time.Now()
	_, err := srv.handleDGC(payload)
	after, live := leaseOf(srv, 1)
	switch {
	case err != nil:
		if !errors.Is(err, ErrBadDGC) {
			t.Fatalf("% x: refused with %v, want ErrBadDGC", payload, err)
		}
		if !live || !after.Equal(before) {
			t.Fatalf("% x: refused (%v) but the export changed: live=%v lease %v -> %v", payload, err, live, before, after)
		}
	case live && (after.Before(start) || after.After(time.Now().Add(MaxLease))):
		t.Fatalf("% x: accepted, lease now ends %v from now", payload, time.Until(after))
	}
	return err
}

func TestHandleDGCHostile(t *testing.T) {
	for _, tc := range hostileDGC {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkDGC(t, tc.payload); err == nil {
				t.Fatalf("% x accepted", tc.payload)
			}
		})
	}
	for _, ok := range [][]byte{
		dgcMsg(dgcClean, 1), dgcMsg(dgcClean, 7), dgcMsg(dgcDirty, 7, 60),
		dgcMsg(dgcDirty, 1, 1), dgcMsg(dgcDirty, 1, uint64(MaxLease/time.Second)),
	} {
		if err := checkDGC(t, ok); err != nil {
			t.Fatalf("% x refused: %v", ok, err)
		}
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

// FuzzHandleDGC: no DGC payload panics the server, and each one meets
// checkDGC's contract.
func FuzzHandleDGC(f *testing.F) {
	for _, tc := range hostileDGC {
		f.Add(tc.payload)
	}
	f.Add(dgcMsg(dgcClean, 1))
	f.Add(dgcMsg(dgcDirty, 1, 600))
	f.Fuzz(func(t *testing.T, payload []byte) { checkDGC(t, payload) })
}
