// Package leakcheck is the TestMain body of every package whose tests start
// goroutines or move pooled buffers: the bufpool ownership ledger is armed for
// the whole run, and after it the package fails if a goroutine of this module
// is alive or a check (Pooled; the arena balance in wire and core) fails.
package leakcheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nrmi/internal/bufpool"
)

// Main runs m and exits, non-zero if a test or, after it, a check failed.
func Main(m *testing.M, checks ...func() error) {
	bufpool.SetDebug(true)
	code := m.Run()
	if code == 0 {
		for _, check := range append(checks, goroutines) {
			if err := settle(check); err != nil {
				fmt.Fprintln(os.Stderr, "leakcheck:", err)
				code = 1
			}
		}
	}
	os.Exit(code)
}

// Settle is Pooled for one test, whose workload targets one release path.
func Settle(t testing.TB) {
	t.Helper()
	if err := settle(Pooled); err != nil {
		t.Fatal(err)
	}
}

// Pooled is the ledger check: every pooled buffer handed out is back, none
// came back twice, and, unless -run or -list narrowed the run, some moved.
func Pooled() error {
	s := bufpool.DebugSnapshot()
	switch {
	case s.DoublePuts != 0:
		return fmt.Errorf("bufpool: %d double-Puts (%+v)", s.DoublePuts, s)
	case s.Outstanding != 0:
		return fmt.Errorf("bufpool: %d buffers never returned (%+v)", s.Outstanding, s)
	case s.Gets == 0 && flag.Lookup("test.run").Value.String()+flag.Lookup("test.list").Value.String() == "":
		return fmt.Errorf("bufpool: the ledger saw no traffic; the check is vacuous")
	}
	return nil
}

// settle polls check through a grace period: closed connections' loops exit,
// and the read loop recycles unmatched replies, asynchronously.
func settle(check func() error) error {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if err := check(); err == nil || time.Now().After(deadline) {
			return err
		}
	}
}

// ours matches a stack that runs, or was started by, this module's code.
var ours = regexp.MustCompile(`(?m)^(created by )?nrmi[/.]`)

func goroutines() error {
	var leaked []string
	for _, g := range Stacks()[1:] { // the first stack is this goroutine's
		if ours.MatchString(g) {
			leaked = append(leaked, g)
		}
	}
	if len(leaked) == 0 {
		return nil
	}
	return fmt.Errorf("%d goroutines outlive the tests:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

// Stacks returns one stack dump per live goroutine, the caller's first.
func Stacks() []string {
	var dump bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&dump, 2) // runtime.Stack(all), grown to fit
	return strings.Split(strings.TrimSpace(dump.String()), "\n\n")
}
