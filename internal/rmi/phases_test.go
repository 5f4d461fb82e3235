package rmi

import (
	"context"
	"slices"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/obs"
)

// TestEveryCallShapeRecordsItsPhases runs one call of each shape with an
// observer on each end and reads back what each end recorded: every
// expected phase exactly once, no other, phases that add up to no more
// than the call, and the request and reply sizes the other end saw. A
// one-way call has no reply, so its server neither shadows the restore set
// nor encodes a response, and neither end records reply bytes.
func TestEveryCallShapeRecordsItsPhases(t *testing.T) {
	server := []string{"srv-decode", "srv-prepare", "srv-execute", "srv-encode"}
	for _, row := range []struct {
		shape          callShape
		client, server []string
	}{
		{shapeCall, []string{"encode", "transport", "decode-reply", "restore-commit"}, server},
		{shapeAsync, []string{"decode-reply", "restore-commit", "async-issue", "async-await"}, server},
		{shapeOneWay, []string{"encode", "transport"}, []string{"srv-decode", "srv-execute"}},
	} {
		t.Run(row.shape.name, func(t *testing.T) {
			reg := treeRegistry(t)
			n := netsim.NewNetwork()
			t.Cleanup(func() { n.Close() })
			srvObs, cliObs := obs.New(obs.Config{}), obs.New(obs.Config{})
			srv, err := NewServer("server", Options{Core: core.Options{Registry: reg}, Obs: srvObs})
			if err != nil {
				t.Fatal(err)
			}
			svc := &ChaosService{summed: make(chan struct{}, 1)}
			if err := srv.Export("chaos", svc); err != nil {
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

			method, arg := "Scale", any(chaosTree())
			if row.shape.name == shapeOneWay.name {
				method, arg = "Sum", &CTree{Data: 5, Left: &CTree{Data: 1}}
			}
			if _, err := row.shape.call(cl.Stub("server", "chaos"), context.Background(), method, arg, 1); err != nil {
				t.Fatal(err)
			}
			if method == "Sum" {
				<-svc.summed // the server finishes its call after the method returns
			}
			cliTr := checkPhases(t, "client", cliObs, method, row.client)
			srvTr := checkPhases(t, "server", srvObs, method, row.server)
			if cliTr.BytesOut == 0 || cliTr.BytesOut != srvTr.BytesIn {
				t.Errorf("client recorded a %d-byte request, server read %d", cliTr.BytesOut, srvTr.BytesIn)
			}
			if cliTr.BytesIn != srvTr.BytesOut {
				t.Errorf("client recorded a %d-byte reply, server wrote %d", cliTr.BytesIn, srvTr.BytesOut)
			}
		})
	}
}

// checkPhases waits for o to hold its endpoint's one call of method and
// holds it to the phases want, returning its trace. An observer files a
// call's trace after its aggregates, so once the trace is there the
// aggregates are complete.
func checkPhases(t *testing.T, end string, o *obs.Observer, method string, want []string) obs.Trace {
	t.Helper()
	var traces []obs.Trace
	for deadline := time.Now().Add(5 * time.Second); len(traces) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		traces = o.Slowest(0)
	}
	snap := o.Snapshot()
	m := snap.Method("chaos", method)
	if len(traces) != 1 || m == nil || m.Calls != 1 {
		t.Fatalf("%s recorded %+v, want one call of %s", end, m, method)
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
	reg := treeRegistry(t)
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	srvObs, cliObs := obs.New(obs.Config{}), obs.New(obs.Config{})
	srv, err := NewServer("server", Options{Core: core.Options{Registry: reg}, Obs: srvObs})
	if err != nil {
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
