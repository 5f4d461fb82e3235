package transport

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if a goroutine this package runs or started —
// read loop, accept loop, worker, or a test's own helper — is still alive
// once every test has returned: each test closes what it opened, so whatever
// is left was leaked by the transport or by a test that forgot.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := transportGoroutines(2 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines of nrmi/internal/transport outlive the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// transportGoroutines returns the stacks of the goroutines, other than the
// caller's, that mention this package, giving stragglers up to grace to exit
// (a closed connection's loops unwind asynchronously).
func transportGoroutines(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		// The first stack is the calling goroutine's.
		for _, g := range goroutineStacks()[1:] {
			if strings.Contains(g, "nrmi/internal/transport") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutineStacks returns one stack dump per live goroutine, the caller's
// first.
func goroutineStacks() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
}
