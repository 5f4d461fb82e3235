// Command nrmi-registry runs a standalone NRMI naming service, the analog
// of Java's rmiregistry: an NRMI server whose one export is the registry
// (Server.EnableRegistry). Servers bind (name → address, object) entries
// and clients look services up by name (Client.Registry,
// Client.LookupStub).
//
// Usage:
//
//	nrmi-registry [-addr 127.0.0.1:4099]
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"

	"nrmi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4099", "listen address")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("nrmi-registry: %v", err)
	}
	srv, err := nrmi.NewServer(ln.Addr().String(), nrmi.Options{})
	if err != nil {
		log.Fatalf("nrmi-registry: %v", err)
	}
	srv.EnableRegistry()
	srv.Serve(ln)
	log.Printf("nrmi-registry: serving on %s", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	log.Printf("nrmi-registry: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("nrmi-registry: close: %v", err)
	}
}
