package main

// End-to-end measurement: everything here goes through the public nrmi
// package only.

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"nrmi"
)

// workload is one fixed set of inputs and one way of calling. The names
// are cited by later issues; do not rename them.
type workload struct {
	name    string
	size    int         // tree nodes
	method  string      // "Apply" (copy-restore) or "OneWay" (plain copy)
	engine  nrmi.Engine // 0 = the default engine
	callers int         // goroutines issuing calls on the one connection
	window  int         // >1: CallAsync this many, then Wait each in order
	// refUs is the reference work's time per call, in microseconds, in a
	// quiet phase of the box the benchmark was defined on; see refClock.
	refUs float64
}

var workloads = []workload{
	{name: "tree256-restore", size: 256, method: "Apply", callers: 1, refUs: 330},
	{name: "tree256-restore-v3", size: 256, method: "Apply", engine: nrmi.EngineV3, callers: 1, refUs: 330},
	{name: "tree256-copy", size: 256, method: "OneWay", callers: 1, refUs: 250},
	{name: "tree16-restore", size: 16, method: "Apply", callers: 2, refUs: 15},
	{name: "tree16-pipelined", size: 16, method: "Apply", callers: 1, window: 8, refUs: 15},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	warmupCalls = 512  // untimed: plan and kernel compilation, pools, TCP buffers
	batchCalls  = 64   // calls between two resource snapshots
	seedCycle   = 1024 // call i uses world seed  seed + i mod seedCycle
	callTimeout = 5 * time.Second
)

// call is one remote invocation: its inputs, and after run its outcome.
type call struct {
	seed   int64
	world  *World  // passed as is by tree256-copy
	rworld *RWorld // passed by the copy-restore workloads
	script Script
	lat    time.Duration
	rets   []any
	err    error
}

// rig is one workload set up: a server child, one client, one connection.
type rig struct {
	w      workload
	seed   int64
	child  *child
	client *nrmi.Client
	reg    *nrmi.Registry
	svc    *nrmi.Stub
	ctl    *nrmi.Stub
	conns  *connCounters
	// ctlCost is what one ctl call adds to the child's counters between the
	// snapshot of one ctl call and the snapshot of the next.
	ctlCost Usage
	next    int // calls generated so far
	ref     refClock
	// corrupt, when not negative, is the index among verified calls of the
	// one whose expected world the verifier damages; tests use it to prove
	// that a mismatch fails the run.
	corrupt  int
	verified int
}

// refClock times the reference work: generating each call's world and, after
// the call, executing the script locally on a twin and comparing the two
// worlds. It is the same interaction without middleware (the paper's Table
// 1), it is frozen in this directory, and it runs next to every batch of
// calls. The box this benchmark runs on has phases in which memory-heavy
// code takes up to twice as long (README.md, "Noise"); the reference slows
// with the calls (correlation 0.95 per slice), so times are reported scaled
// by workload.refUs over the reference's measured time per call.
type refClock struct {
	spent time.Duration
	calls int
}

// take returns the time spent per call since the last take, in microseconds.
func (c *refClock) take() float64 {
	us := micros(c.spent) / float64(c.calls)
	*c = refClock{}
	return us
}

// setUp spawns the child, registers types, dials and warms up. Its
// duration, scaled by the reference work of its own warm-up, is the setup_s
// metric.
func setUp(w workload, seed int64, warmup int) (*rig, time.Duration, error) {
	start := time.Now()
	r := &rig{w: w, seed: seed, conns: &connCounters{}, reg: nrmi.NewRegistry(), corrupt: -1}
	if err := registerTypes(r.reg); err != nil {
		return nil, 0, err
	}
	var err error
	if r.child, err = spawn(w.engine); err != nil {
		return nil, 0, err
	}
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return r.conns.wrap(c), nil
	}
	r.client, err = nrmi.NewClient(dial, nrmi.Options{Engine: w.engine, Registry: r.reg, CallTimeout: callTimeout})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.svc = r.client.Stub(r.child.addr, "svc")
	r.ctl = r.client.Stub(r.child.addr, "ctl")
	for r.next < warmup {
		warm := r.generate(min(batchCalls, warmup-r.next))
		r.run(warm)
		if failed := r.verify(warm); failed > 0 {
			r.close()
			return nil, 0, fmt.Errorf("%s: %d of %d warm-up calls failed (first: %v)", w.name, failed, len(warm), firstErr(warm))
		}
	}
	r.next, r.verified = 0, 0 // the timed calls start the seed cycle afresh
	d := time.Since(start)
	return r, time.Duration(float64(d) * w.refUs / r.ref.take()), nil
}

func (r *rig) close() {
	if r.client != nil {
		_ = r.client.Close()
	}
	if r.child != nil {
		r.child.stop()
	}
}

// generate makes the next n calls' inputs from the seed.
func (r *rig) generate(n int) []*call {
	defer func(t0 time.Time) { r.ref.spent += time.Since(t0) }(time.Now())
	r.ref.calls += n
	calls := make([]*call, n)
	for i := range calls {
		c := &call{seed: r.seed + int64(r.next%seedCycle)}
		r.next++
		c.world, c.script = newWorld(c.seed, r.w.size)
		if r.w.method == "Apply" {
			c.rworld = toRWorld(c.world)
		}
		calls[i] = c
	}
	return calls
}

func (r *rig) args(c *call) []any {
	if c.rworld != nil {
		return []any{c.rworld.Root, c.script}
	}
	return []any{c.world.Root, c.script}
}

// run issues the calls the way the workload defines and records each
// call's latency. It never has more than two goroutines issuing calls.
func (r *rig) run(calls []*call) {
	if r.w.callers == 1 {
		r.runSeq(calls)
		return
	}
	var wg sync.WaitGroup
	per := (len(calls) + r.w.callers - 1) / r.w.callers
	for lo := 0; lo < len(calls); lo += per {
		wg.Add(1)
		go func(part []*call) {
			defer wg.Done()
			r.runSeq(part)
		}(calls[lo:min(lo+per, len(calls))])
	}
	wg.Wait()
}

func (r *rig) runSeq(calls []*call) {
	ctx := context.Background() // Options.CallTimeout bounds every attempt
	if r.w.window <= 1 {
		for _, c := range calls {
			t0 := time.Now()
			c.rets, c.err = r.svc.Call(ctx, r.w.method, r.args(c)...)
			c.lat = time.Since(t0)
		}
		return
	}
	issued := make([]time.Time, r.w.window)
	promises := make([]*nrmi.Promise, r.w.window)
	for lo := 0; lo < len(calls); lo += r.w.window {
		win := calls[lo:min(lo+r.w.window, len(calls))]
		for i, c := range win {
			issued[i] = time.Now()
			promises[i], c.err = r.svc.CallAsync(ctx, r.w.method, r.args(c)...)
		}
		for i, c := range win {
			if c.err == nil {
				c.rets, c.err = promises[i].Wait(ctx)
			}
			c.lat = time.Since(issued[i])
		}
	}
}

// verify compares every call with the same script executed locally on a
// twin world from the same seed, and returns how many differ or failed.
func (r *rig) verify(calls []*call) (failed int) {
	defer func(t0 time.Time) { r.ref.spent += time.Since(t0) }(time.Now())
	for _, c := range calls {
		if !r.verifyCall(c) {
			failed++
		}
	}
	return failed
}

func (r *rig) verifyCall(c *call) bool {
	if c.err != nil || len(c.rets) != 1 {
		return false
	}
	ret, ok := c.rets[0].(int)
	if !ok {
		return false
	}
	want, _ := newWorld(c.seed, r.w.size)
	if r.verified == r.corrupt {
		want.Aliases[0].Data++
	}
	r.verified++
	if c.rworld == nil {
		// By copy: the caller's tree must be untouched, and the server's
		// mutated copy must match local execution.
		if !equalWorlds(c.world, want) {
			return false
		}
		c.script.apply(want.Root)
		return ret == checksum(want.Root)
	}
	c.script.apply(want.Root)
	return ret == len(c.script) && equalWorlds(c.rworld.toWorld(), want)
}

func firstErr(calls []*call) error {
	for _, c := range calls {
		if c.err != nil {
			return c.err
		}
	}
	return fmt.Errorf("post-call world differs from local execution")
}

// serverUsage asks the child for its counters.
func (r *rig) serverUsage() (Usage, error) {
	rets, err := r.ctl.Call(context.Background(), "Usage")
	if err != nil {
		return Usage{}, fmt.Errorf("ctl: %w", err)
	}
	u, ok := rets[0].(Usage)
	if !ok {
		return Usage{}, fmt.Errorf("ctl: unexpected result %T", rets[0])
	}
	return u, nil
}

// calibrateCtl measures ctlCost: the growth of the child's counters between
// two back-to-back ctl calls is what the second call's arrival and the
// first call's reply cost. The smallest of a few pairs is the constant.
func (r *rig) calibrateCtl() error {
	prev, err := r.serverUsage()
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		cur, err := r.serverUsage()
		if err != nil {
			return err
		}
		d := cur.sub(prev)
		if i == 0 || d.CPUMicros < r.ctlCost.CPUMicros {
			r.ctlCost = d
		}
		prev = cur
	}
	return nil
}

// sliceResult is what one timed slice measured.
type sliceResult struct {
	attempted, failed int
	wall              time.Duration // timed call sections only
	refUs             float64       // reference work per call, as measured
	lats              []time.Duration
	client, server    Usage              // growth over the call sections
	metrics           nrmi.ClientMetrics // growth over the call sections
	calibNs           []float64          // before and after
}

// slice measures for d: batches of generate (untimed), snapshot both
// processes, timed calls, snapshot, verify (untimed). Generation and
// verification are inside d but outside every reported figure.
func (r *rig) slice(d time.Duration) (sliceResult, error) {
	var s sliceResult
	r.ref = refClock{}
	s.calibNs = append(s.calibNs, calibrate())
	for start := time.Now(); ; {
		calls := r.generate(batchCalls)
		// Snapshot order keeps the ctl traffic outside the client's
		// bracket; the child's share of it is ctlCost, subtracted below.
		srv0, err := r.serverUsage()
		if err != nil {
			return s, err
		}
		m0 := r.client.Metrics()
		cli0 := readUsage(r.conns)
		t0 := time.Now()
		r.run(calls)
		s.wall += time.Since(t0)
		cli1 := readUsage(r.conns)
		m1 := r.client.Metrics()
		srv1, err := r.serverUsage()
		if err != nil {
			return s, err
		}
		s.client = s.client.add(cli1.sub(cli0))
		s.server = s.server.add(srv1.sub(srv0).sub(r.ctlCost))
		s.metrics.Retries += m1.Retries - m0.Retries
		s.metrics.EngineFallbacks += m1.EngineFallbacks - m0.EngineFallbacks
		s.metrics.BytesSent += m1.BytesSent - m0.BytesSent
		s.metrics.BytesReceived += m1.BytesReceived - m0.BytesReceived
		s.attempted += len(calls)
		s.failed += r.verify(calls)
		for _, c := range calls {
			s.lats = append(s.lats, c.lat)
		}
		if time.Since(start) >= d {
			break
		}
	}
	s.calibNs = append(s.calibNs, calibrate())
	s.refUs = r.ref.take()
	return s, nil
}

// calibBuf is hashed by calibrate; its content does not matter.
var calibBuf = make([]byte, 1<<20)

// calibrate times a fixed piece of pure CPU work. It brackets every slice
// so that a slow phase of the box shows as such beside the slice's numbers.
func calibrate() float64 {
	t0 := time.Now()
	h := fnv.New64a()
	_, _ = h.Write(calibBuf)
	calibSink = h.Sum64()
	return float64(time.Since(t0).Nanoseconds())
}

var calibSink uint64

// quantile returns the q-quantile (0..1) of the sorted values by nearest
// rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
