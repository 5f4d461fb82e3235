package core_test

import (
	"bytes"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// TestScenarioIIIMessageSizes pins the bytes of the paper's headline call —
// internal/model's scenario III, seed 1: the restorable tree and its mutation
// script out, a content record per object the script changed and one int
// back — per codec configuration, so that a drift of any wire format fails
// here and not in a ledger run. V1 requests read what they read before the
// V2 format moved to bare slots; V2-portable is V2 byte for byte, and V3
// writes V2's bytes, so both must equal V2's messages. Responses read 1875,
// 25393 (V1) and 156, 2343 (V2) while every pre-call object shipped a
// record.
func TestScenarioIIIMessageSizes(t *testing.T) {
	reg := wire.NewRegistry()
	if err := model.Register(reg); err != nil {
		t.Fatal(err)
	}
	type sizes struct{ request, response int }
	type message struct{ request, response string }
	v2 := map[int]message{} // the v2 row's bytes, by size
	for _, tc := range []struct {
		name     string
		engine   wire.Engine
		portable bool
		want     map[int]sizes
	}{
		{"v1", wire.EngineV1, false, map[int]sizes{16: {2943, 1123}, 256: {28698, 3385}}},
		// Requests of 488 and 3993 while every value carried a descriptor.
		{"v2", wire.EngineV2, false, map[int]sizes{16: {194, 93}, 256: {1509, 296}}},
		{"v2-portable", wire.EngineV2, true, nil},
		{"v3", wire.EngineV3, false, nil},
	} {
		for _, size := range []int{16, 256} {
			opts := core.Options{Engine: tc.engine, Registry: reg, DisablePlanCache: tc.portable}
			w, script := model.NewWorld(model.ScenarioIII, 1, size)
			rw := model.ToRWorld(w)

			var req, resp bytes.Buffer
			call := core.NewCall(&req, opts)
			if err := call.EncodeRestorable(rw.Root); err != nil {
				t.Fatal(err)
			}
			if err := call.EncodeCopy(script); err != nil {
				t.Fatal(err)
			}
			if err := call.Finish(); err != nil {
				t.Fatal(err)
			}
			got := sizes{request: req.Len()}

			srv := core.AcceptCallBytes(req.Bytes(), opts)
			sroot, err := srv.DecodeRestorable()
			if err != nil {
				t.Fatal(err)
			}
			sscript, err := srv.DecodeCopy()
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Prepare(); err != nil {
				t.Fatal(err)
			}
			sscript.(model.Script).ApplyR(sroot.(*model.RTree))
			if _, err := srv.EncodeResponse(&resp, []any{len(script)}); err != nil {
				t.Fatal(err)
			}
			got.response = resp.Len()
			srv.Release()
			if _, err := call.ApplyResponseBytes(resp.Bytes()); err != nil {
				t.Fatal(err)
			}
			call.Release()
			if err := model.Verify(rw.ToWorld(), model.Expected(model.ScenarioIII, 1, size, script)); err != nil {
				t.Fatalf("%s size %d: %v", tc.name, size, err)
			}
			msg := message{req.String(), resp.String()}
			if tc.name == "v2" {
				v2[size] = msg
			}
			switch {
			case tc.want == nil && msg != v2[size]:
				t.Errorf("%s size %d: request %d B, response %d B differ from v2's %d and %d",
					tc.name, size, got.request, got.response, len(v2[size].request), len(v2[size].response))
			case tc.want != nil && got != tc.want[size]:
				t.Errorf("%s size %d: request %d B, response %d B; pinned %d and %d",
					tc.name, size, got.request, got.response, tc.want[size].request, tc.want[size].response)
			}
		}
	}
}
