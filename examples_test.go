package nrmi_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example program end to end and checks the
// load-bearing lines of its output, so the examples cannot silently rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run")
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"./examples/quickstart", []string{
			"after:  2 4 6 -1",
			"alias into the middle sees the doubled value too: 4",
		}},
		{"./examples/translator", []string{
			"Datei | Bearbeiten | Ansicht",
			"Fichier | Édition | Affichage",
			"status: Bereit",
		}},
		{"./examples/multiindex", []string{
			"zip 94043: Ada(balance=6249,txs=2)",
			"alias identity preserved across calls: true",
		}},
		{"./examples/treedemo", []string{
			"Figure 2 (local call):     t=5(· 2(8 ·))",
			"RMI copy: all changes LOST t=5(1 7(3 4))",
			"Figure 8 (NRMI):           t=5(· 2(8 ·))",
			"Figure 9 (DCE RPC):        t=5(· 2(8 ·))",
		}},
		{"./examples/faults", []string{
			"2. remote error surfaced: true (balance still 100)",
			"3. slow call timed out: true",
			"5. recovered after restart, balance=123",
			"6. retries rode out the dropped frames, balance=42",
			"7. partitioned call failed: true, balance untouched: true",
			"8. healed link, deposit landed, balance=50",
		}},
		{"./examples/callbacks", []string{
			"33% prepare backup",
			"99% publish backup",
			"live exports on the client: 1 during the job, 0 after the server released the listener",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q\n---\n%s", c.dir, want, out)
				}
			}
		})
	}
}
