package nrmi_test

import (
	"context"
	"fmt"
	"log"
	"net"

	"nrmi"
)

// Roster is a restorable type used by the examples: a team roster whose
// member list is aliased by several views.
type Roster struct {
	Team    string
	Members []string
}

// NRMIRestorable opts Roster into call-by-copy-restore.
func (*Roster) NRMIRestorable() {}

// RosterService mutates rosters remotely.
type RosterService struct{}

// Promote prefixes every member with a star, in place.
func (s *RosterService) Promote(r *Roster) int {
	for i, m := range r.Members {
		r.Members[i] = "*" + m
	}
	return len(r.Members)
}

// Example demonstrates the core NRMI property: after a remote call, the
// caller's own data — including aliases — reflects the server's mutations.
func Example() {
	reg := nrmi.NewRegistry()
	if err := reg.Register("example.Roster", Roster{}); err != nil {
		log.Fatal(err)
	}
	opts := nrmi.Options{Registry: reg}

	// Server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := nrmi.NewServer(ln.Addr().String(), opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Export("roster", &RosterService{}); err != nil {
		log.Fatal(err)
	}
	srv.Serve(ln)
	defer srv.Close()

	// Client.
	client, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	roster := &Roster{Team: "gophers", Members: []string{"ada", "bob"}}
	view := roster.Members // an alias: e.g. what a UI widget holds

	rets, err := client.Stub(ln.Addr().String(), "roster").Call(context.Background(), "Promote", roster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("promoted:", rets[0])
	fmt.Println("roster:", roster.Members)
	fmt.Println("aliased view:", view)
	// Output:
	// promoted: 2
	// roster: [*ada *bob]
	// aliased view: [*ada *bob]
}

// ExampleOptions shows the experiment-oriented switch: the codec engine.
func ExampleOptions() {
	opts := nrmi.Options{
		Engine: nrmi.EngineV1, // the paper's JDK 1.3 baseline codec
	}
	fmt.Println(opts.Engine == nrmi.EngineV1)
	// Output: true
}
