package netsim

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// faultPair dials a link named "s" and returns both conn halves, with the
// server half read by the caller.
func faultPair(t *testing.T, n *Network) (client, server io.ReadWriteCloser) {
	t.Helper()
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan io.ReadWriteCloser, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	c, err := n.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-accepted:
		return c, s
	case <-time.After(time.Second):
		t.Fatal("accept did not complete")
		return nil, nil
	}
}

func TestPlanDeterminism(t *testing.T) {
	rates := Rates{Drop: 0.2, Delay: 0.2, MaxDelay: time.Millisecond, Duplicate: 0.2, Corrupt: 0.2, Sever: 0.1}
	a := RandomPlan(42, rates)
	b := RandomPlan(42, rates)
	for i := 0; i < 200; i++ {
		da, db := a.next(64), b.next(64)
		if da != db {
			t.Fatalf("frame %d: same seed diverged: %+v vs %+v", i+1, da, db)
		}
	}
	c := RandomPlan(43, rates)
	diverged := false
	for i := 0; i < 200; i++ {
		if a.next(64) != c.next(64) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDropFrameNeverDelivered(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.SetFaults("s", NewPlan(1).DropFrame(1))
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	if wrote, err := c.Write([]byte("lost!")); err != nil || wrote != 5 {
		t.Fatalf("dropped write must look successful, got n=%d err=%v", wrote, err)
	}
	// Frame 2 passes; the reader must see only its bytes.
	go func() { _, _ = c.Write([]byte("kept!")) }()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "kept!" {
		t.Fatalf("reader saw %q, want the undropped frame", buf)
	}
	st := n.Stats()
	if st.Dropped != 1 || st.Messages != 1 {
		t.Fatalf("stats = %+v, want 1 dropped / 1 delivered", st)
	}
}

func TestDelayFrameObserved(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.SetFaults("s", NewPlan(1).DelayFrame(1, 50*time.Millisecond))
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	go func() {
		buf := make([]byte, 1)
		_, _ = io.ReadFull(s, buf)
	}()
	start := time.Now()
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("delay fault not observed, write took %v", el)
	}
	if st := n.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v, want 1 delayed", st)
	}
}

func TestDuplicateFrameDeliveredTwice(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.SetFaults("s", NewPlan(1).DuplicateFrame(1))
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 6)
		if _, err := io.ReadFull(s, buf); err == nil {
			got <- buf
		}
	}()
	if _, err := c.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	select {
	case buf := <-got:
		if !bytes.Equal(buf, []byte("abcabc")) {
			t.Fatalf("reader saw %q, want the frame twice", buf)
		}
	case <-time.After(time.Second):
		t.Fatal("duplicate frame never arrived")
	}
	if st := n.Stats(); st.Duplicated != 1 || st.Messages != 2 {
		t.Fatalf("stats = %+v, want 1 duplicated / 2 messages", st)
	}
}

func TestCorruptFrameChangesBytes(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.SetFaults("s", NewPlan(7).CorruptFrame(1))
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	sent := bytes.Repeat([]byte{0xAA}, 64)
	go func() { _, _ = c.Write(sent) }()
	buf := make([]byte, 64)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, sent) {
		t.Fatal("corrupt fault delivered the frame unmodified")
	}
	if st := n.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted", st)
	}
}

func TestCorruptBytesRespectsSkip(t *testing.T) {
	p := NewPlan(3).SkipCorrupting(16)
	orig := bytes.Repeat([]byte{0x55}, 64)
	for i := 0; i < 100; i++ {
		out := p.CorruptBytes(orig)
		if !bytes.Equal(out[:16], orig[:16]) {
			t.Fatalf("iteration %d: protected prefix modified", i)
		}
		if bytes.Equal(out, orig) {
			t.Fatalf("iteration %d: no byte changed", i)
		}
		if !bytes.Equal(orig, bytes.Repeat([]byte{0x55}, 64)) {
			t.Fatalf("iteration %d: input mutated in place", i)
		}
	}
}

func TestSeverMidFrame(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.SetFaults("s", NewPlan(11).SeverFrame(1))
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	frame := bytes.Repeat([]byte{1}, 100)
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 100)
		_, err := io.ReadFull(s, buf)
		readErr <- err
	}()
	wrote, err := c.Write(frame)
	if !errors.Is(err, ErrSevered) {
		t.Fatalf("want ErrSevered, got n=%d err=%v", wrote, err)
	}
	if wrote >= 100 {
		t.Fatalf("sever delivered the whole frame (%d bytes)", wrote)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("reader must see the torn connection")
		}
	case <-time.After(time.Second):
		t.Fatal("reader never unblocked after sever")
	}
	// The conn half is dead for good.
	if _, err := c.Write([]byte{2}); err == nil {
		t.Fatal("write after sever must fail")
	}
	if st := n.Stats(); st.Severed != 1 {
		t.Fatalf("stats = %+v, want 1 severed", st)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	c, s := faultPair(t, n)
	defer c.Close()
	defer s.Close()

	// Healthy first.
	go func() {
		buf := make([]byte, 2)
		_, _ = io.ReadFull(s, buf)
	}()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}

	n.Partition("", "s")
	if !n.Partitioned("", "s") {
		t.Fatal("pair not reported partitioned")
	}
	// Existing conns are severed...
	if _, err := c.Write([]byte("no")); err == nil {
		t.Fatal("write across a partition must fail")
	}
	// ...and new dials refused.
	if _, err := n.Dial("s"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}

	n.Heal("", "s")
	c2, err := n.Dial("s")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c2.Close()
}

func TestPartitionIsPairwise(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	n.Partition("h1", "s")
	if _, err := n.DialFrom("h1", "s"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned host must be refused, got %v", err)
	}
	// A different host pair is unaffected.
	c2, err := n.DialFrom("h2", "s")
	if err != nil {
		t.Fatalf("unpartitioned host refused: %v", err)
	}
	_ = c2.Close()
}
