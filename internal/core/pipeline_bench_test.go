package core

import (
	"bytes"
	"fmt"
	"testing"

	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// BenchmarkPipeline drives the four core steps of one copy-restore call —
// request, accept, respond, apply — on scenario-III trees with no transport
// between them: the codec hot path in isolation, for profiles. Worlds are
// generated in blocks with the timer stopped; every call sees a fresh one.
// The fixed rows call one world over and over with no script applied, so
// each reply carries no record: what a call costs beyond its values.
func BenchmarkPipeline(b *testing.B) {
	for _, size := range []int{16, 256} {
		for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
			benchPipeline(b, fmt.Sprintf("%s-%d", eng, size), eng, size, false)
		}
	}
	for _, size := range []int{1, 16} {
		benchPipeline(b, fmt.Sprintf("fixed-%d", size), wire.EngineV2, size, true)
	}
}

func benchPipeline(b *testing.B, name string, eng wire.Engine, size int, fixed bool) {
	b.Run(name, func(b *testing.B) {
		reg := wire.NewRegistry()
		if err := model.Register(reg); err != nil {
			b.Fatal(err)
		}
		opts := Options{Engine: eng, Registry: reg}
		_, script := model.NewWorld(model.ScenarioIII, 1, size)
		roots := make([]*model.RTree, 256)
		var req, resp bytes.Buffer
		b.ReportAllocs()
		if fixed {
			w, _ := model.NewWorld(model.ScenarioIII, 1, size)
			roots = []*model.RTree{model.ToRWorld(w).Root}
		}
		for i := 0; i < b.N; i++ {
			if !fixed && i%len(roots) == 0 {
				b.StopTimer()
				for j := range roots {
					w, _ := model.NewWorld(model.ScenarioIII, int64(j), size)
					roots[j] = model.ToRWorld(w).Root
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
			if !fixed {
				script.ApplyR(sroot.(*model.RTree))
			}
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
