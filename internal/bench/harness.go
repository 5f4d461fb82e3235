package bench

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Cell is one table cell: the per-call cost of a configuration.
type Cell struct {
	// Millis is the mean wall-clock per remote call (the unit the paper's
	// tables use).
	Millis float64
	// Bytes is the mean bytes on the wire per call.
	Bytes int64
	// Messages is the mean network messages (Writes) per call; a
	// sequential request/response call is 2, remote pointers are hundreds.
	Messages float64
	// OK is false when the configuration blew its budget, rendered as the
	// paper's "-" cells.
	OK bool
	// Note carries failure context.
	Note string
}

// String renders the cell as the paper does: milliseconds, "-" on budget
// blowout, "<1" for sub-millisecond calls.
func (c Cell) String() string {
	if !c.OK {
		return "-"
	}
	if c.Millis < 1 {
		return "<1"
	}
	return fmt.Sprintf("%.0f", c.Millis)
}

// RunSpec identifies one cell's workload.
type RunSpec struct {
	// Scenario is the aliasing/mutation configuration.
	Scenario Scenario
	// Size is the tree's node count.
	Size int
	// Iterations is how many calls are averaged.
	Iterations int
	// Seed derives the tree and script; iteration i uses Seed+i.
	Seed int64
	// Verify re-checks the restore invariant on the first iteration.
	Verify bool
}

func (r RunSpec) iterations() int {
	if r.Iterations <= 0 {
		return 1
	}
	return r.Iterations
}

// measure averages the timed section over the spec's iterations. run
// builds its world and makes its call timed, and returns an optional
// verification function, which runs after the clock has stopped and the
// network counters have been read: what it reads is neither timed nor
// counted.
func measure(e *Env, spec RunSpec, run func(seed int64) (verify func() error, err error)) (Cell, error) {
	iters := spec.iterations()
	var total time.Duration
	var bytes int64
	var msgs int64
	for i := 0; i < iters; i++ {
		seed := spec.Seed + int64(i)
		e.ResetStats()
		start := time.Now()
		verify, err := run(seed)
		if err != nil {
			return Cell{Note: err.Error()}, err
		}
		total += time.Since(start)
		st := e.Stats()
		bytes += st.BytesSent
		msgs += st.Messages
		if spec.Verify && i == 0 && verify != nil {
			if err := verify(); err != nil {
				return Cell{Note: err.Error()}, err
			}
		}
	}
	return Cell{
		Millis:   float64(total.Nanoseconds()) / 1e6 / float64(iters),
		Bytes:    bytes / int64(iters),
		Messages: float64(msgs) / float64(iters),
		OK:       true,
	}, nil
}

// RunLocal measures Table 1's local execution: the script applied in the
// caller's own address space. cpuFactor scales the result for the paper's
// slow-machine column.
func RunLocal(spec RunSpec, cpuFactor float64) (Cell, error) {
	iters := spec.iterations()
	var total time.Duration
	for i := 0; i < iters; i++ {
		seed := spec.Seed + int64(i)
		w, script := NewWorld(spec.Scenario, seed, spec.Size)
		start := time.Now()
		script.Apply(w.Root)
		total += time.Since(start)
	}
	if cpuFactor < 1 {
		cpuFactor = 1
	}
	return Cell{
		Millis: float64(total.Nanoseconds()) / 1e6 / float64(iters) * cpuFactor,
		OK:     true,
	}, nil
}

// RunOneWay measures Table 2: plain RMI call-by-copy with no restore
// ("only sending the tree to the server but not sending the changed tree
// back").
func RunOneWay(e *Env, spec RunSpec) (Cell, error) {
	stub := e.Client.Stub(ServerAddr, "copy")
	return measure(e, spec, func(seed int64) (func() error, error) {
		w, script := NewWorld(spec.Scenario, seed, spec.Size)
		_, err := stub.Call(context.Background(), "OneWay", w.Root, script)
		return nil, err
	})
}

// RunManual measures Tables 3 and 4: plain RMI plus the hand-written
// restore strategy for the scenario.
func RunManual(e *Env, spec RunSpec) (Cell, error) {
	stub := e.Client.Stub(ServerAddr, "copy")
	return measure(e, spec, func(seed int64) (func() error, error) {
		w, script := NewWorld(spec.Scenario, seed, spec.Size)
		ctx := context.Background()
		switch spec.Scenario {
		case ScenarioI:
			rets, err := stub.Call(ctx, "MutateReturnI", w.Root, script)
			if err != nil {
				return nil, err
			}
			r := rets[0].(ReturnI)
			w.Root = r.Tree
		case ScenarioII:
			rets, err := stub.Call(ctx, "MutateReturnII", w.Root, script)
			if err != nil {
				return nil, err
			}
			r := rets[0].(ReturnII)
			RestoreII(w, r.Tree)
		case ScenarioIII:
			rets, err := stub.Call(ctx, "MutateReturnIII", w.Root, script)
			if err != nil {
				return nil, err
			}
			r := rets[0].(ReturnIII)
			RestoreIII(w, r.Tree, r.Shadow)
		}
		return func() error {
			if err := Verify(w, Expected(spec.Scenario, seed, spec.Size, script)); err != nil {
				return fmt.Errorf("manual %s: %w", spec.Scenario, err)
			}
			return nil
		}, nil
	})
}

// RunNRMI measures Table 5: the same workload under call-by-copy-restore,
// where the client-side code is just the call itself.
func RunNRMI(e *Env, spec RunSpec) (Cell, error) {
	stub := e.Client.Stub(ServerAddr, "nrmi")
	return measure(e, spec, func(seed int64) (func() error, error) {
		w, script := NewWorld(spec.Scenario, seed, spec.Size)
		rw := ToRWorld(w)
		if _, err := stub.Call(context.Background(), "Apply", rw.Root, script); err != nil {
			return nil, err
		}
		return func() error {
			if err := Verify(rw.ToWorld(), Expected(spec.Scenario, seed, spec.Size, script)); err != nil {
				return fmt.Errorf("nrmi %s: %w", spec.Scenario, err)
			}
			return nil
		}, nil
	})
}

// RunNRMINop measures a restorable call whose method changes nothing, the
// paper's optimization 2 case: "the cost of passing an object
// by-copy-restore and not making any changes to it is almost identical to
// the cost of passing it by-copy" (Section 5.2.4).
func RunNRMINop(e *Env, spec RunSpec) (Cell, error) {
	stub := e.Client.Stub(ServerAddr, "nrmi")
	return measure(e, spec, func(seed int64) (func() error, error) {
		w, _ := NewWorld(spec.Scenario, seed, spec.Size)
		rw := ToRWorld(w)
		if _, err := stub.Call(context.Background(), "Nop", rw.Root); err != nil {
			return nil, err
		}
		return func() error {
			// A no-op call must leave the world exactly as built.
			if err := Verify(rw.ToWorld(), mustWorld(spec.Scenario, seed, spec.Size)); err != nil {
				return fmt.Errorf("nrmi nop %s: %w", spec.Scenario, err)
			}
			return nil
		}, nil
	})
}

// mustWorld rebuilds the pristine world for no-op verification.
func mustWorld(sc Scenario, seed int64, size int) *World {
	w, _ := NewWorld(sc, seed, size)
	return w
}

// RunCBRef measures Table 6: call-by-reference through remote pointers.
// budget bounds each call's wall-clock; exceeding it yields the paper's
// "-" cell (their 1024-node runs exhausted the heap and never completed).
// The server's mutator runs under its request's context, which carries the
// budget, so a blown call's traversal stops with it.
func RunCBRef(e *Env, spec RunSpec, budget time.Duration) (Cell, error) {
	stub := e.Client.Stub(ServerAddr, "refmut")
	cell, err := measure(e, spec, func(seed int64) (func() error, error) {
		w, script := NewWorld(spec.Scenario, seed, spec.Size)
		root, ordered := BuildRefTree(w.Root)
		ctx := context.Background()
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		if _, err := stub.Call(ctx, "Mutate", root, script); err != nil {
			return nil, err
		}
		return func() error { return verifyCBRef(w, root, ordered, spec, seed, script) }, nil
	})
	if errors.Is(err, context.DeadlineExceeded) {
		return Cell{OK: false, Note: "budget exceeded"}, nil
	}
	return cell, err
}

// verifyCBRef checks the remote-pointer result against local execution,
// reading the nodes the server created through their stubs. ordered holds
// the tree's nodes as BuildRefTree returns them.
func verifyCBRef(w *World, root *RefNode, ordered []*RefNode, spec RunSpec, seed int64, script Script) error {
	ctx := context.Background()
	snap := newHandleSnapshotter()
	gotRoot, err := snap.snapshot(ctx, root)
	if err != nil {
		return err
	}
	got := &World{Root: gotRoot, AliasIdx: w.AliasIdx}
	for _, idx := range w.AliasIdx {
		ga, err := snap.snapshot(ctx, ordered[idx])
		if err != nil {
			return err
		}
		got.Aliases = append(got.Aliases, ga)
	}
	if err := Verify(got, Expected(spec.Scenario, seed, spec.Size, script)); err != nil {
		return fmt.Errorf("cbref %s: %w", spec.Scenario, err)
	}
	return nil
}

// handleSnapshotter converts handle graphs to plain trees with a shared
// memo, so aliasing between roots is preserved in the snapshot.
type handleSnapshotter struct {
	memo map[string]*Tree
}

func newHandleSnapshotter() *handleSnapshotter {
	return &handleSnapshotter{memo: make(map[string]*Tree)}
}

func (s *handleSnapshotter) snapshot(ctx context.Context, h Handle) (*Tree, error) {
	if h == nil {
		return nil, nil
	}
	k := handleKey(h)
	if m, ok := s.memo[k]; ok {
		return m, nil
	}
	d, err := h.GetData(ctx)
	if err != nil {
		return nil, err
	}
	m := &Tree{Data: d}
	s.memo[k] = m
	l, err := h.GetLeft(ctx)
	if err != nil {
		return nil, err
	}
	if m.Left, err = s.snapshot(ctx, l); err != nil {
		return nil, err
	}
	r, err := h.GetRight(ctx)
	if err != nil {
		return nil, err
	}
	if m.Right, err = s.snapshot(ctx, r); err != nil {
		return nil, err
	}
	return m, nil
}
