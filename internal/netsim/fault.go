// Fault injection: per-link fault plans that make the simulated network
// misbehave on purpose. The paper's Section 6.2 argues that copy-restore
// keeps partial failure *visible* — a failed call must surface as an error
// and leave the caller's graph untouched, never half-restored. That claim
// is only testable against a network that actually fails, so this file
// teaches netsim to drop, delay, duplicate, and corrupt frames, sever a
// connection mid-frame, and partition host pairs.
//
// Every probabilistic choice is drawn from one seeded *rand.Rand per Plan,
// so a fault schedule is fully determined by (seed, rates, frame order):
// logging the seed of a failing chaos run is enough to replay it.
package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Errors introduced by the fault layer.
var (
	// ErrPartitioned is reported when traffic crosses a severed host pair.
	ErrPartitioned = errors.New("netsim: network partitioned")
	// ErrSevered is reported by a Write cut short by a sever fault; the
	// connection is closed with the frame incomplete on the wire.
	ErrSevered = errors.New("netsim: connection severed mid-frame")
)

// Op identifies one kind of injected fault.
type Op int

// The fault kinds a Plan can schedule.
const (
	// OpDrop discards the frame silently;
	// the receiver simply never sees it (message loss).
	OpDrop Op = iota
	// OpDelay holds the frame for a duration before delivery.
	OpDelay
	// OpDuplicate delivers the frame twice back to back.
	OpDuplicate
	// OpCorrupt flips one to three bits before delivery.
	OpCorrupt
	// OpSever delivers a prefix of the frame, then closes the connection.
	OpSever
)

// String names the op for logs and seeds.
func (o Op) String() string {
	switch o {
	case OpDrop:
		return "drop"
	case OpDelay:
		return "delay"
	case OpDuplicate:
		return "duplicate"
	case OpCorrupt:
		return "corrupt"
	case OpSever:
		return "sever"
	}
	return "unknown"
}

// Rates configures the probabilistic part of a Plan: each field is the
// per-frame probability of that fault firing. Independent draws are made
// in a fixed field order from the plan's seeded generator, so the whole
// schedule replays from the seed.
type Rates struct {
	// Drop is the probability a frame is discarded.
	Drop float64
	// Delay is the probability a frame is held back; MaxDelay bounds by
	// how long (the actual hold is drawn in [MaxDelay/2, MaxDelay]).
	Delay    float64
	MaxDelay time.Duration
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Corrupt is the probability a frame has bits flipped.
	Corrupt float64
	// Sever is the probability the connection is cut mid-frame.
	Sever float64
}

// Plan is one link's fault schedule. Frames crossing the link (both
// directions) are numbered from 1 in delivery order; deterministic
// per-frame rules and probabilistic rates compose, rules first. A Plan is
// safe for concurrent use; attach it with Network.SetFaults.
type Plan struct {
	seed int64

	mu    sync.Mutex
	rng   *rand.Rand
	frame int64
	fixed map[int64][]fixedFault
	rates Rates
	skip  int
}

type fixedFault struct {
	op    Op
	delay time.Duration
}

// NewPlan returns an empty fault plan whose random choices derive from
// seed. Add deterministic rules with the *Frame methods, probabilistic
// ones by constructing with RandomPlan.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		fixed: make(map[int64][]fixedFault),
	}
}

// RandomPlan returns a plan that fires faults at the given per-frame
// rates, scheduled entirely by the seeded generator.
func RandomPlan(seed int64, r Rates) *Plan {
	p := NewPlan(seed)
	p.rates = r
	return p
}

// Seed returns the plan's seed. Chaos harnesses must log it on failure so
// the exact fault schedule can be replayed.
func (p *Plan) Seed() int64 { return p.seed }

// Frames returns how many frames the plan has judged so far.
func (p *Plan) Frames() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frame
}

// DropFrame schedules the nth frame (1-based) on the link to be dropped.
func (p *Plan) DropFrame(n int64) *Plan { return p.add(n, fixedFault{op: OpDrop}) }

// DelayFrame schedules the nth frame to be held for d.
func (p *Plan) DelayFrame(n int64, d time.Duration) *Plan {
	return p.add(n, fixedFault{op: OpDelay, delay: d})
}

// DuplicateFrame schedules the nth frame to be delivered twice.
func (p *Plan) DuplicateFrame(n int64) *Plan { return p.add(n, fixedFault{op: OpDuplicate}) }

// CorruptFrame schedules the nth frame to have bits flipped.
func (p *Plan) CorruptFrame(n int64) *Plan { return p.add(n, fixedFault{op: OpCorrupt}) }

// SeverFrame schedules the connection to be cut partway through writing
// the nth frame.
func (p *Plan) SeverFrame(n int64) *Plan { return p.add(n, fixedFault{op: OpSever}) }

// SkipCorrupting protects the first k bytes of every frame from corrupt
// faults, e.g. to spare a transport header whose magic/length checks
// would otherwise detect every corruption before it reaches the payload.
func (p *Plan) SkipCorrupting(k int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.skip = k
	return p
}

func (p *Plan) add(n int64, f fixedFault) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fixed[n] = append(p.fixed[n], f)
	return p
}

// decision is the fault verdict for one frame.
type decision struct {
	drop      bool
	duplicate bool
	corrupt   bool
	sever     bool
	severCut  int
	delay     time.Duration
}

// next advances the frame counter and returns the verdict for a frame of
// the given size. Draw order is fixed so schedules replay from the seed.
func (p *Plan) next(size int) decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frame++
	var d decision
	for _, f := range p.fixed[p.frame] {
		switch f.op {
		case OpDrop:
			d.drop = true
		case OpDelay:
			if f.delay > d.delay {
				d.delay = f.delay
			}
		case OpDuplicate:
			d.duplicate = true
		case OpCorrupt:
			d.corrupt = true
		case OpSever:
			d.sever = true
		}
	}
	r := p.rates
	if r.Drop > 0 && p.rng.Float64() < r.Drop {
		d.drop = true
	}
	if r.Delay > 0 && p.rng.Float64() < r.Delay {
		hold := r.MaxDelay/2 + time.Duration(p.rng.Int63n(int64(r.MaxDelay/2)+1))
		if hold > d.delay {
			d.delay = hold
		}
	}
	if r.Duplicate > 0 && p.rng.Float64() < r.Duplicate {
		d.duplicate = true
	}
	if r.Corrupt > 0 && p.rng.Float64() < r.Corrupt {
		d.corrupt = true
	}
	if r.Sever > 0 && p.rng.Float64() < r.Sever {
		d.sever = true
	}
	if d.sever && size > 1 {
		d.severCut = 1 + p.rng.Intn(size-1)
	}
	return d
}

// CorruptBytes returns a copy of b with one to three bits flipped at
// plan-chosen positions past the protected prefix (SkipCorrupting). The
// wire fuzz corpus uses the same generator the chaos layer does, so the
// decoder is hardened against exactly the damage the faults produce.
func (p *Plan) CorruptBytes(b []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]byte(nil), b...)
	lo := p.skip
	if lo >= len(out) {
		lo = 0
	}
	span := len(out) - lo
	if span <= 0 {
		return out
	}
	flips := 1 + p.rng.Intn(3)
	for i := 0; i < flips; i++ {
		pos := lo + p.rng.Intn(span)
		out[pos] ^= 1 << uint(p.rng.Intn(8))
	}
	return out
}
