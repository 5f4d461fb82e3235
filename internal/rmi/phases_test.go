package rmi

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/obs"
)

// TestEveryCallShapeRecordsItsPhases runs one call of each shape with an
// observer on each end and reads back what each end recorded: every
// expected phase exactly once, no other, phases that add up to no more
// than the call, and the request and reply sizes the other end saw.
// Between them the lists name every obs.Phase, so a phase that no call
// marks fails here; one observer shared by both ends holds the client's and
// the server's phases under one key.
func TestEveryCallShapeRecordsItsPhases(t *testing.T) {
	server := []string{"srv-decode", "srv-prepare", "srv-execute", "srv-encode"}
	rows := []struct {
		shape  callShape
		client []string
	}{
		{shapeCall, []string{"encode", "transport", "decode-reply", "restore-commit"}},
		{shapeAsync, []string{"decode-reply", "restore-commit", "async-issue", "async-await"}},
	}
	listed := map[string]bool{}
	for _, name := range server {
		listed[name] = true
	}
	for _, row := range rows {
		for _, name := range row.client {
			listed[name] = true
		}
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if !listed[p.String()] {
			t.Errorf("phase %s is on no call shape's list", p)
		}
		delete(listed, p.String())
	}
	if len(listed) > 0 {
		t.Errorf("listed phases %v are not obs.Phase names", listed)
	}
	for _, row := range rows {
		t.Run(row.shape.name, func(t *testing.T) {
			srvObs, cliObs := obs.New(), obs.New()
			_, cl := observedPair(t, srvObs, cliObs)
			if _, err := row.shape.call(cl.Stub("server", "chaos"), context.Background(), "Scale", chaosTree(), 1); err != nil {
				t.Fatal(err)
			}
			cliTr := checkPhases(t, "client", cliObs, "Scale", 1, row.client)
			srvTr := checkPhases(t, "server", srvObs, "Scale", 1, server)
			if cliTr.BytesOut == 0 || cliTr.BytesOut != srvTr.BytesIn {
				t.Errorf("client recorded a %d-byte request, server read %d", cliTr.BytesOut, srvTr.BytesIn)
			}
			if cliTr.BytesIn != srvTr.BytesOut {
				t.Errorf("client recorded a %d-byte reply, server wrote %d", cliTr.BytesIn, srvTr.BytesOut)
			}
		})
	}
	t.Run("shared", func(t *testing.T) {
		o := obs.New()
		_, cl := observedPair(t, o, o)
		if _, err := cl.Stub("server", "chaos").Call(context.Background(), "Scale", chaosTree(), 1); err != nil {
			t.Fatal(err)
		}
		checkPhases(t, "shared", o, "Scale", 2, append(slices.Clone(rows[0].client), server...))
	})
}

// observedPair starts a server exporting "chaos" and a client, observed by
// srvObs and cliObs (either may be nil), all closed at the end of t.
func observedPair(t *testing.T, srvObs, cliObs *obs.Observer) (*Server, *Client) {
	t.Helper()
	reg := treeRegistry(t)
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	srv, err := NewServer("server", Options{Core: core.Options{Registry: reg}, Obs: srvObs})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("chaos", &ChaosService{}); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := NewClient(n.Dial, Options{Core: core.Options{Registry: reg}, Obs: cliObs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// checkPhases waits for o to hold calls records of method, one per
// endpoint it observes, and holds them to the phases want, each recorded
// once, returning the first trace. An observer files a call's trace after
// its aggregates, so once the traces are there the aggregates are complete.
func checkPhases(t *testing.T, end string, o *obs.Observer, method string, calls int, want []string) obs.Trace {
	t.Helper()
	var traces []obs.Trace
	for deadline := time.Now().Add(5 * time.Second); len(traces) < calls && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		traces = o.Slowest(0)
	}
	snap := o.Snapshot()
	m := snap.Method("chaos", method)
	if len(traces) != calls || m == nil || m.Calls != int64(calls) {
		t.Fatalf("%s recorded %+v, want %d records of %s", end, m, calls, method)
	}
	var got []string
	for _, ph := range m.Phases {
		got = append(got, ph.Phase)
		if ph.Latency.Count != 1 {
			t.Errorf("%s phase %s recorded %d times, want once", end, ph.Phase, ph.Latency.Count)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s phases = %v, want %v", end, got, want)
	}
	tr := traces[0]
	var sum int64
	for _, ph := range tr.Phases {
		sum += ph.Ns
	}
	if sum > tr.TotalNs {
		t.Errorf("%s phases sum to %dns, more than the call's %dns", end, sum, tr.TotalNs)
	}
	return tr
}

// TestAnonymousExportsShareObserverKey: calls on anonymous exports are
// observed under "#" and the type's wire name on both ends, so 50 objects
// of one type make one observer entry, not 50.
func TestAnonymousExportsShareObserverKey(t *testing.T) {
	const objects = 50
	srvObs, cliObs := obs.New(), obs.New()
	srv, cl := observedPair(t, srvObs, cliObs)

	var label string
	for i := 0; i < objects; i++ {
		ref, err := srv.Ref(&Counter{})
		if err != nil {
			t.Fatal(err)
		}
		label = "#" + ref.TypeName
		if _, err := cl.RefStub(ref).Call(context.Background(), "Increment"); err != nil {
			t.Fatal(err)
		}
	}
	for end, o := range map[string]*obs.Observer{"client": cliObs, "server": srvObs} {
		snap := o.Snapshot()
		keys := 0
		for _, m := range snap.Methods {
			if m.Method == "Increment" {
				keys++
			}
		}
		if m := snap.Method(label, "Increment"); keys != 1 || m == nil || m.Calls != objects {
			t.Errorf("%s observed Increment under %d keys (%+v under %q), want %d calls under %q alone", end, keys, m, label, objects, label)
		}
	}
}

// TestUnresolvedCallsShareObserverKey: a call to a target or a method the
// server does not hold is observed under "?", so a peer's made-up names
// cannot grow the server's observer: 100 such calls make at most two
// entries. The error still names what the peer asked for.
func TestUnresolvedCallsShareObserverKey(t *testing.T) {
	const calls = 50
	srvObs := obs.New()
	_, cl := observedPair(t, srvObs, nil)

	ctx := context.Background()
	before := len(srvObs.Snapshot().Methods)
	for i := 0; i < calls; i++ {
		key, method := fmt.Sprintf("#%d", 1000+i), fmt.Sprintf("Made%d", i)
		if _, err := cl.Stub("server", key).Call(ctx, method); !refused(err, ErrNoSuchObject, key) {
			t.Fatalf("%s.%s: %v, want no such object naming %s", key, method, err, key)
		}
		if _, err := cl.Stub("server", "chaos").Call(ctx, method); !refused(err, ErrNoSuchMethod, method) {
			t.Fatalf("chaos.%s: %v, want no such method naming %s", method, err, method)
		}
	}
	snap := srvObs.Snapshot()
	if grew := len(snap.Methods) - before; grew > 2 {
		t.Fatalf("%d unresolved calls grew the observer by %d keys, want at most 2", 2*calls, grew)
	}
	for _, key := range [][2]string{{unresolved, unresolved}, {"chaos", unresolved}} {
		if m := snap.Method(key[0], key[1]); m == nil || m.Calls != calls || m.Errors != calls {
			t.Errorf("observer key %v holds %+v, want %d failed calls", key, m, calls)
		}
	}
}

// refused reports whether err is the remote refusal want, naming name.
func refused(err, want error, name string) bool {
	msg := fmt.Sprint(err)
	return strings.Contains(msg, want.Error()) && strings.Contains(msg, name)
}
