package rmi

import (
	"context"
	"fmt"
	"net"
	"testing"

	"nrmi/internal/core"
)

// BenchmarkCall is the rmi layer in isolation: whole calls over loopback
// TCP, client and server in this process, per call shape and tree size.
// Call and CallAsync+Wait restore a balanced tree (Touch). The allocation
// count is both ends' per call; the bufpool ledger of this package's TestMain is
// on, so the time is not the benchmark module's.
func BenchmarkCall(b *testing.B) {
	reg := treeRegistry(b)
	opts := Options{Core: core.Options{Registry: reg}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ln.Addr().String(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Export("trees", &TreeService{}); err != nil {
		b.Fatal(err)
	}
	srv.Serve(ln)
	defer srv.Close()
	cl, err := NewClient(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	stub := cl.Stub(srv.Addr(), "trees")
	ctx := context.Background()

	for _, size := range []int{16, 256} {
		var restored func(lo, hi int) *RTree
		restored = func(lo, hi int) *RTree {
			if lo >= hi {
				return nil
			}
			mid := (lo + hi) / 2
			return &RTree{Data: mid, Left: restored(lo, mid), Right: restored(mid+1, hi)}
		}
		for _, shape := range []callShape{shapeCall, shapeAsync} {
			arg := restored(0, size)
			b.Run(fmt.Sprintf("%s/%d", shape.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := shape.call(stub, ctx, "Touch", arg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
