package core

import (
	"bytes"
	"fmt"
	"testing"

	"nrmi/internal/wire"
)

// BenchmarkPipeline drives the four core steps of one copy-restore call —
// request, accept, respond, apply — on scenario-III trees with no transport
// between them: the codec hot path in isolation, for profiles. Worlds are
// generated in blocks with the timer stopped; every call sees a fresh one.
func BenchmarkPipeline(b *testing.B) {
	for _, size := range []int{16, 256} {
		for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
			benchPipeline(b, fmt.Sprintf("%s-%d", eng, size), eng, size)
		}
	}
}

func benchPipeline(b *testing.B, name string, eng wire.Engine, size int) {
	b.Run(name, func(b *testing.B) {
		reg := wire.NewRegistry()
		if err := reg.Register("Tree", Tree{}); err != nil {
			b.Fatal(err)
		}
		opts := Options{Engine: eng, Registry: reg}
		script := genScript(1, size, 8+size/16)
		roots := make([]*Tree, 256)
		var req, resp bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(roots) == 0 {
				b.StopTimer()
				for j := range roots {
					roots[j] = genWorld(int64(j), size).Root
				}
				b.StartTimer()
			}
			root := roots[i%len(roots)]
			req.Reset()
			resp.Reset()
			call := NewCall(&req, opts)
			if err := call.EncodeRestorable(root); err != nil {
				b.Fatal(err)
			}
			if err := call.Finish(); err != nil {
				b.Fatal(err)
			}
			srv := AcceptCallBytes(req.Bytes(), opts)
			sroot, err := srv.DecodeRestorable()
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Prepare(); err != nil {
				b.Fatal(err)
			}
			applyScript(sroot.(*Tree), script)
			if _, err := srv.EncodeResponse(&resp, nil); err != nil {
				b.Fatal(err)
			}
			srv.Release()
			if _, err := call.ApplyResponseBytes(resp.Bytes()); err != nil {
				b.Fatal(err)
			}
			call.Release()
		}
	})
}
