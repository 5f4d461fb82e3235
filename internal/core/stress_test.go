package core

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentCallsSharedKernels runs the full Figure 1 round trip from
// many goroutines at once, all sharing the codec's compiled per-type
// kernels and the pooled codecs. make test runs this under -race; any
// unsynchronized sharing inside the kernel cache or the pools shows up
// here.
func TestConcurrentCallsSharedKernels(t *testing.T) {
	opts := testOptions(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				root, a1, a2, rl, rr := paperTree()

				var req bytes.Buffer
				call := NewCall(&req, opts)
				if err := call.EncodeRestorable(root); err != nil {
					t.Errorf("encode restorable: %v", err)
					call.Release()
					return
				}
				if err := call.Finish(); err != nil {
					t.Errorf("finish: %v", err)
					call.Release()
					return
				}

				srv := AcceptCallBytes(req.Bytes(), opts)
				sroot, err := srv.DecodeRestorable()
				if err != nil {
					t.Errorf("server decode: %v", err)
					srv.Release()
					call.Release()
					return
				}
				if err := srv.Prepare(); err != nil {
					t.Errorf("prepare: %v", err)
					srv.Release()
					call.Release()
					return
				}
				paperFoo(sroot.(*Tree))
				var respBuf bytes.Buffer
				if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
					t.Errorf("encode response: %v", err)
					srv.Release()
					call.Release()
					return
				}
				srv.Release()
				if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
					t.Errorf("apply response: %v", err)
					call.Release()
					return
				}
				call.Release()

				assertFigure2(t, root, a1, a2, rl, rr)
			}
		}()
	}
	wg.Wait()
}
