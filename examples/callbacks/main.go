// Callbacks demonstrates the third calling semantics: call-by-reference
// via the Remote marker. A client registers a progress listener with a
// remote job server; the listener object stays on the client and the
// server calls back into it through a remote reference while the job runs.
// Contrast with copy-restore: here there is no copy at all — every
// interaction is a network round trip, which is exactly what you want for
// live notifications and exactly what you do not want for bulk data
// (Table 6 of the paper).
//
// Run with: go run ./examples/callbacks
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	"nrmi"
)

// ProgressListener lives on the CLIENT; the server holds only a reference.
type ProgressListener struct {
	mu     sync.Mutex
	events []string
	// live counts the client's exports; held is that count at the last
	// callback.
	live func() int
	held int
}

// NRMIRemote marks the listener for call-by-reference.
func (*ProgressListener) NRMIRemote() {}

// OnProgress is invoked remotely by the server.
func (l *ProgressListener) OnProgress(step string, percent int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("%3d%% %s", percent, step))
	l.held = l.live()
}

// Events snapshots what arrived.
func (l *ProgressListener) Events() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// JobServer runs "jobs" and reports progress through the caller's
// listener reference.
type JobServer struct {
	client *nrmi.Client
}

// Run executes a fake three-phase job, calling back after each phase. The
// listener arrives as a remote reference; each OnProgress is a round trip
// into the client's address space. When the job ends the server releases
// the reference (a DGC Clean), so the client's export is collected: nothing
// renews a lease, and nothing sweeps one unless the client's server was
// started with StartLeaseSweeper.
func (s *JobServer) Run(ctx context.Context, job string, listener *nrmi.RemoteRef) error {
	stub := s.client.RefStub(listener)
	for i, phase := range []string{"prepare " + job, "execute " + job, "publish " + job} {
		if _, err := stub.Call(ctx, "OnProgress", phase, (i+1)*33); err != nil {
			return fmt.Errorf("callback failed: %w", err)
		}
	}
	return s.client.Release(ctx, listener)
}

func main() {
	opts := nrmi.Options{Registry: nrmi.NewRegistry()}

	// Server process.
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := nrmi.NewServer(srvLn.Addr().String(), opts)
	if err != nil {
		log.Fatal(err)
	}
	// The server needs its own client to dial callbacks.
	srvClient, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer srvClient.Close()
	if err := srv.Export("jobs", &JobServer{client: srvClient}); err != nil {
		log.Fatal(err)
	}
	srv.Serve(srvLn)
	defer srv.Close()

	// Client process: it must itself be reachable (it exports the
	// listener), so it runs a small server too.
	clLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	clSrv, err := nrmi.NewServer(clLn.Addr().String(), opts)
	if err != nil {
		log.Fatal(err)
	}
	clSrv.Serve(clLn)
	defer clSrv.Close()
	client, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.BindLocalServer(clSrv)

	listener := &ProgressListener{live: clSrv.LiveRefs}
	// Passing a Remote-marked object exports it and ships a reference;
	// the object itself never leaves this process.
	if _, err := client.Stub(srvLn.Addr().String(), "jobs").Call(context.Background(), "Run", "backup", listener); err != nil {
		log.Fatal(err)
	}

	fmt.Println("progress events delivered into the client's own listener object:")
	for _, e := range listener.Events() {
		fmt.Println(" ", e)
	}
	fmt.Printf("live exports on the client: %d during the job, %d after the server released the listener\n",
		listener.held, clSrv.LiveRefs())
}
