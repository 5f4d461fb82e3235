// Faults demonstrates the paper's position on network transparency
// (Section 6.2, referencing the Waldo et al. "note on distributed
// computing"): NRMI makes remote calls *behave* like local calls, but it
// never hides that a network exists — remote failures surface as ordinary
// Go errors the programmer must handle, timeouts are the caller's choice,
// and a restarted server is picked up transparently by the connection
// pool.
//
// Run with: go run ./examples/faults
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"nrmi"
)

// Account is a restorable bank account.
type Account struct {
	Owner   string
	Balance int
}

// NRMIRestorable marks Account for copy-restore.
func (*Account) NRMIRestorable() {}

// Bank is the remote service.
type Bank struct{}

// Deposit adds to the balance; negative amounts are a remote error.
func (b *Bank) Deposit(a *Account, amount int) error {
	if amount < 0 {
		return fmt.Errorf("deposit of %d rejected: amounts must be positive", amount)
	}
	a.Balance += amount
	return nil
}

// Audit takes a while, to demonstrate caller-side timeouts.
func (b *Bank) Audit(a *Account) int {
	time.Sleep(300 * time.Millisecond)
	return a.Balance
}

func startBank(addr string, opts nrmi.Options) (*nrmi.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv, err := nrmi.NewServer(ln.Addr().String(), opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Export("bank", &Bank{}); err != nil {
		return nil, err
	}
	srv.Serve(ln)
	return srv, nil
}

func main() {
	if err := nrmi.Register("faults.Account", Account{}); err != nil {
		log.Fatal(err)
	}
	srv, err := startBank("127.0.0.1:0", nrmi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr()

	client, err := nrmi.NewClient(nrmi.TCPDialer(), nrmi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	stub := client.Stub(addr, "bank")
	ctx := context.Background()
	acct := &Account{Owner: "ada"}

	// 1. Normal call: restore works.
	if _, err := stub.Call(ctx, "Deposit", acct, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. deposit ok, balance=%d\n", acct.Balance)

	// 2. Remote application errors arrive as Go errors — and a failed
	// call restores nothing: the account is untouched.
	_, err = stub.Call(ctx, "Deposit", acct, -5)
	fmt.Printf("2. remote error surfaced: %v (balance still %d)\n", err != nil, acct.Balance)

	// 3. Timeouts are the caller's policy, via context.
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err = stub.Call(shortCtx, "Audit", acct)
	cancel()
	fmt.Printf("3. slow call timed out: %v\n", errors.Is(err, context.DeadlineExceeded))

	// 4. Server crash: in-flight and subsequent calls fail...
	_ = srv.Close()
	_, err = stub.Call(ctx, "Deposit", acct, 1)
	fmt.Printf("4. call against dead server failed: %v\n", err != nil)

	// 5. ...but once the server is back (same address), the client's
	// connection pool re-dials transparently: no new stub needed.
	srv2, err := startBank(addr, nrmi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	for i := 0; i < 100; i++ {
		if _, err = stub.Call(ctx, "Deposit", acct, 23); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		log.Fatalf("never recovered: %v", err)
	}
	fmt.Printf("5. recovered after restart, balance=%d\n", acct.Balance)

	// 6. Deterministic fault injection: on a simulated link whose fault
	// plan drops the first two request frames, a retry policy rides out
	// the loss — and because dropped requests never reached the server,
	// the deposit lands exactly once.
	sim := nrmi.NewSimNetwork()
	defer sim.Close()
	simSrv, err := startSimBank(sim, "bank-host")
	if err != nil {
		log.Fatal(err)
	}
	defer simSrv.Close()
	sim.SetFaults("bank-host", nrmi.NewSimFaultPlan(7).DropFrame(1).DropFrame(2))
	rclient, err := nrmi.NewClient(sim.Dial, nrmi.Options{
		Retry:       nrmi.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, Seed: 7},
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rclient.Close()
	rstub := rclient.Stub("bank-host", "bank")
	racct := &Account{Owner: "grace"}
	if _, err := rstub.Call(ctx, "Deposit", racct, 42); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6. retries rode out the dropped frames, balance=%d\n", racct.Balance)

	// 7. Failures are atomic as well as visible: a call across a severed
	// link fails, and the failed call leaves the account exactly as it
	// was — never a partial restore (the Section 6.2 invariant).
	sim.SetFaults("bank-host", nil)
	sim.Partition("", "bank-host")
	before := racct.Balance
	_, err = rstub.Call(ctx, "Deposit", racct, 1000)
	fmt.Printf("7. partitioned call failed: %v, balance untouched: %v\n",
		err != nil, racct.Balance == before)

	// 8. Healing the partition brings the same stub back to life via the
	// connection pool's re-dial.
	sim.Heal("", "bank-host")
	if _, err := rstub.Call(ctx, "Deposit", racct, 8); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8. healed link, deposit landed, balance=%d\n", racct.Balance)
}

// startSimBank exports a Bank on a simulated network host.
func startSimBank(sim *nrmi.SimNetwork, addr string) (*nrmi.Server, error) {
	srv, err := nrmi.NewServer(addr, nrmi.Options{})
	if err != nil {
		return nil, err
	}
	if err := srv.Export("bank", &Bank{}); err != nil {
		return nil, err
	}
	ln, err := sim.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv.Serve(ln)
	return srv, nil
}
