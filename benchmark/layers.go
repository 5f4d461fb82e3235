package main

// Per-layer measurement from outside. This is the only file that imports
// nrmi/internal/...: it times calls into the layers' public functions and
// records a span around each. Spans inside the program are a later change.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// span is one timed interval of the traced pass. Spans of one call share
// CallID; Parent names the span whose work this one is part of ("" for a
// root). The isolated spans (graph.*, wire.*) are replicas run on the same
// graph right before the pipeline, not nested in their parent in time: a
// parent's self time is its duration minus its children's durations.
type span struct {
	CallID  int    `json:"call_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// startEcho serves the transport-only echo in the child: a request is four
// bytes of reply length followed by padding, the reply is that many bytes.
// transport.echo thus moves exactly a call's request and response sizes
// through the frame layer with no codec and no dispatch behind it.
func startEcho() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	zeros := make([]byte, 1<<20)
	srv := transport.Serve(ln, func(_ context.Context, _ byte, payload []byte) ([]byte, error) {
		if len(payload) < 4 {
			return nil, fmt.Errorf("echo: short request")
		}
		n := int(binary.BigEndian.Uint32(payload))
		if n > len(zeros) {
			return make([]byte, n), nil
		}
		return zeros[:n], nil
	})
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// tracer collects spans and per-call samples during the traced pass.
type tracer struct {
	epoch   time.Time
	spans   []span
	samples samples
	callID  int
	// countAllocs switches step from timing to allocation counting. The two
	// are never done on the same call: ReadMemStats stops the world and
	// flushes allocation caches, which would slow the step it brackets.
	countAllocs bool
	// stepSum adds up the current call's six pipeline steps; rmi.call_ns is
	// reconciled against it.
	stepSum time.Duration
}

// step runs f as the named span of the current call.
func (t *tracer) step(name, parent string, f func() error) error {
	if t.countAllocs {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		err := f()
		runtime.ReadMemStats(&b)
		t.samples.add(name+"_allocs", float64(b.Mallocs-a.Mallocs))
		return err
	}
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{t.callID, name, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	t.samples.add(name+"_ns", float64(end.Sub(start).Nanoseconds()))
	if parent == "pipeline" {
		t.stepSum += end.Sub(start)
	}
	return err
}

// minTraceUnits is the least number of units the traced pass runs, however
// short its time: three timed and one allocation-counting unit, twice.
const minTraceUnits = 8

// tracePass runs for d (and at least minTraceUnits units). A unit is as many
// calls as the workload keeps in flight. Each is issued through the public
// API and timed whole; then, on a twin world from the same seed, the
// layers are driven by hand.
func (r *rig) tracePass(d time.Duration) (tr *tracer, attempted, failed int, err error) {
	nc, err := net.Dial("tcp", r.child.echoAddr)
	if err != nil {
		return nil, 0, 0, err
	}
	echo := transport.NewConn(nc)
	defer echo.Close()

	tr = &tracer{epoch: time.Now(), samples: samples{}}
	unit := r.w.callers * max(r.w.window, 1)
	for i := 0; i < minTraceUnits || time.Since(tr.epoch) < d; i++ {
		calls := r.generate(unit)
		r.run(calls)
		attempted += len(calls)
		failed += r.verify(calls)
		tr.countAllocs = i%4 == 3
		for _, c := range calls {
			tr.callID++
			tr.stepSum = 0
			tr.samples.add("rmi.call_ns", float64(c.lat.Nanoseconds()))
			twin, _ := newWorld(c.seed, r.w.size)
			got, err := r.handDrive(tr, echo, twin, c.script)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: hand-driven call: %w", r.w.name, err)
			}
			// The hand-driven pipeline must have done what the real call
			// did, or its timings describe something else.
			want := c.world
			if c.rworld != nil {
				want = c.rworld.toWorld()
			}
			if !equalWorlds(got, want) {
				return nil, 0, 0, fmt.Errorf("%s: hand-driven call diverged from the real call (seed %d)", r.w.name, c.seed)
			}
			if !tr.countAllocs {
				un := float64((c.lat - tr.stepSum).Nanoseconds())
				tr.samples.add("rmi.unattributed_ns", un)
				tr.samples.add("trace.unattributed_share", un/float64(c.lat.Nanoseconds()))
			}
		}
	}
	return tr, attempted, failed, nil
}

// handDrive performs one call's work layer by layer on world w and returns
// the caller's world afterwards.
func (r *rig) handDrive(t *tracer, echo *transport.Conn, w *World, script Script) (*World, error) {
	restore := r.w.method == "Apply"
	var root any = w.Root
	var rw *RWorld
	if restore {
		rw = toRWorld(w)
		root = rw.Root
	}
	opts := core.Options{Engine: r.w.engine, Registry: r.reg}
	wopts := wire.Options{Engine: r.w.engine, Registry: r.reg}

	// Isolated layers, on the pristine graph.
	if err := t.step("graph.walk", "core.accept", func() error {
		lm, err := graph.Walk(graph.AccessExported, root)
		if err == nil {
			t.samples.add("graph.walk_objects", float64(lm.Len()))
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.step("graph.copy", "", func() error {
		_, err := graph.Copy(graph.AccessExported, root)
		return err
	}); err != nil {
		return nil, err
	}
	// As in the pipeline below, handing the pooled codec back is outside
	// the span: core.request and core.accept do not include it either.
	var encoded bytes.Buffer
	var enc *wire.Encoder
	err := t.step("wire.encode", "core.request", func() error {
		enc = wire.AcquireEncoder(&encoded, wopts)
		if err := enc.Encode(root); err != nil {
			return err
		}
		if err := enc.Encode(script); err != nil {
			return err
		}
		return enc.Flush()
	})
	wire.ReleaseEncoder(enc)
	if err != nil {
		return nil, err
	}
	t.samples.add("wire.encoded_bytes", float64(encoded.Len()))
	var dec *wire.Decoder
	err = t.step("wire.decode", "core.accept", func() error {
		dec = wire.AcquireDecoderBytes(encoded.Bytes(), wopts)
		if _, err := dec.Decode(); err != nil {
			return err
		}
		_, err := dec.Decode()
		return err
	})
	wire.ReleaseDecoder(dec)
	if err != nil {
		return nil, err
	}

	// The pipeline: the paper's six steps as core exposes them. The echo
	// is taken out of order because it needs the response's size.
	var req, resp bytes.Buffer
	var cc *core.Call
	pipelineStart := time.Now()
	if err := t.step("core.request", "pipeline", func() error {
		cc = core.NewCall(&req, opts)
		var err error
		if restore {
			err = cc.EncodeRestorable(root)
		} else {
			err = cc.EncodeCopy(root)
		}
		if err == nil {
			err = cc.EncodeCopy(script)
		}
		if err == nil {
			err = cc.Finish()
		}
		return err
	}); err != nil {
		return nil, err
	}
	defer cc.Release()
	t.samples.add("core.request_bytes", float64(req.Len()))

	var sc *core.ServerCall
	var srvRoot, srvScript any
	if err := t.step("core.accept", "pipeline", func() error {
		sc = core.AcceptCallBytes(req.Bytes(), opts)
		var err error
		if restore {
			srvRoot, err = sc.DecodeRestorable()
		} else {
			srvRoot, err = sc.DecodeCopy()
		}
		if err == nil {
			srvScript, err = sc.DecodeCopy()
		}
		if err == nil {
			err = sc.Prepare()
		}
		return err
	}); err != nil {
		return nil, err
	}
	defer sc.Release()

	var ret int
	if err := t.step("app.execute", "pipeline", func() error {
		s, ok := srvScript.(Script)
		if !ok {
			return fmt.Errorf("decoded script is %T", srvScript)
		}
		svc := &Service{}
		switch n := srvRoot.(type) {
		case *RTree:
			ret = svc.Apply(n, s)
		case *Tree:
			ret = svc.OneWay(n, s)
		default:
			return fmt.Errorf("decoded root is %T", srvRoot)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := t.step("core.respond", "pipeline", func() error {
		_, err := sc.EncodeResponse(&resp, []any{ret})
		return err
	}); err != nil {
		return nil, err
	}
	t.samples.add("core.response_bytes", float64(resp.Len()))

	payload := make([]byte, max(4, req.Len()))
	binary.BigEndian.PutUint32(payload, uint32(resp.Len()))
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	if err := t.step("transport.echo", "pipeline", func() error {
		reply, err := echo.Call(ctx, transport.MsgCall, payload)
		if err == nil && len(reply) != resp.Len() {
			err = fmt.Errorf("echo returned %d bytes, want %d", len(reply), resp.Len())
		}
		transport.ReleasePayload(reply)
		return err
	}); err != nil {
		return nil, err
	}

	if err := t.step("core.apply", "pipeline", func() error {
		res, err := cc.ApplyResponseBytes(resp.Bytes())
		if err == nil {
			t.samples.add("core.restored_objects", float64(res.Restored))
			t.samples.add("core.new_objects", float64(res.NewObjects))
		}
		return err
	}); err != nil {
		return nil, err
	}
	if !t.countAllocs {
		t.spans = append(t.spans, span{t.callID, "pipeline", "", pipelineStart.Sub(t.epoch).Nanoseconds(), time.Since(t.epoch).Nanoseconds()})
	}
	if restore {
		return rw.toWorld(), nil
	}
	return w, nil
}
