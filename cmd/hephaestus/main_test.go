package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the hephaestus command:
// with HEPHAESTUS_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("HEPHAESTUS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hephaestus runs the command with args and returns its stdout.
func hephaestus(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HEPHAESTUS_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hephaestus %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// TestSubcommandsHonourProducerFlags: the single-unit subcommands
// derive the seed's unit the way a campaign with the same flags would,
// so -synth, -synth-every and -stress-every change what they print.
func TestSubcommandsHonourProducerFlags(t *testing.T) {
	grammar := hephaestus(t, "generate", "-seed", "5")
	synth := hephaestus(t, "generate", "-seed", "5", "-synth")
	if synth == grammar {
		t.Error("generate -synth printed the grammar program")
	}
	if got := hephaestus(t, "generate", "-seed", "5", "-synth-every", "2"); got != synth {
		t.Error("generate -synth-every 2 on a claimed seed differs from -synth")
	}
	if got := hephaestus(t, "generate", "-seed", "4", "-synth-every", "2"); got != hephaestus(t, "generate", "-seed", "4") {
		t.Error("generate -synth-every 2 on an unclaimed seed differs from the grammar program")
	}
	if got := hephaestus(t, "generate", "-seed", "3", "-stress-every", "4"); got == hephaestus(t, "generate", "-seed", "3") {
		t.Error("generate -stress-every 4 on a stress seed printed the grammar program")
	}

	if out := hephaestus(t, "mutate", "-seed", "5", "-synth"); !strings.Contains(out, "== synthesized unit: not mutated ==") {
		t.Errorf("mutate -synth does not say the unit is not mutated:\n%s", tail(out))
	}
	if out := hephaestus(t, "mutate", "-seed", "3", "-stress-every", "4"); !strings.Contains(out, "== stress unit: not mutated ==") {
		t.Errorf("mutate -stress-every does not say the unit is not mutated:\n%s", tail(out))
	}
	if out := hephaestus(t, "mutate", "-seed", "4"); !strings.Contains(out, "== TOM mutant (ill-typed): ") {
		t.Errorf("mutate on a grammar seed shows no TOM mutant:\n%s", tail(out))
	}
}

// TestSubcommandsRejectUnreadFlags: a flag the subcommand does not read
// exits 2 naming it, instead of being silently ignored; the flags it
// does read still run.
func TestSubcommandsRejectUnreadFlags(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	for _, tc := range []struct {
		args   []string
		unread []string // nil: the command must succeed
	}{
		{[]string{"generate", "-n", "5"}, []string{"-n"}},
		{[]string{"generate", "-seed", "3", "-n", "5", "-workers", "7", "-chaos", "0.5", "-state", state, "-resume", "-stats"},
			[]string{"-n", "-workers", "-chaos", "-state", "-resume", "-stats"}},
		{[]string{"typegraph", "-lang", "kotlin"}, []string{"-lang"}},
		{[]string{"mutate", "-fuel", "30000", "-oracle", "differential"}, []string{"-fuel", "-oracle"}},
		{[]string{"translate", "-lang", "java", "-heartbeat", "1s"}, []string{"-heartbeat"}},
		{[]string{"reduce", "-debug-addr", "127.0.0.1:0"}, []string{"-debug-addr"}},
		{[]string{"fuzz", "-n", "2", "-lang", "kotlin"}, []string{"-lang"}},
		{[]string{"generate", "-seed", "3", "-lang", "kotlin", "-stress-every", "4", "-synth-every", "2"}, nil},
		{[]string{"typegraph", "-seed", "3", "-synth"}, nil},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "HEPHAESTUS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		name := strings.Join(tc.args, " ")
		if tc.unread == nil {
			if err != nil {
				t.Errorf("hephaestus %s: %v\n%s", name, err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hephaestus %s: want exit 2, got %v", name, err)
			continue
		}
		for _, f := range tc.unread {
			if !strings.Contains(stderr.String(), " "+f) {
				t.Errorf("hephaestus %s: error does not name %s: %q", name, f, stderr.String())
			}
		}
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("a rejected -state created %s", state)
	}
}

// TestTypegraphStdoutIsStable: typegraph prints the methods' graphs in
// declaration order, the same bytes on every run.
func TestTypegraphStdoutIsStable(t *testing.T) {
	first := hephaestus(t, "typegraph", "-seed", "3")
	for run := 2; run <= 4; run++ {
		if got := hephaestus(t, "typegraph", "-seed", "3"); got != first {
			t.Fatalf("typegraph -seed 3 stdout differs on run %d:\n%s\nvs\n%s", run, tail(got), tail(first))
		}
	}
	if n := strings.Count(first, "// method "); n < 2 {
		t.Fatalf("typegraph -seed 3 printed %d method graphs, want several", n)
	}
}

func tail(s string) string {
	if len(s) > 400 {
		return "..." + s[len(s)-400:]
	}
	return s
}
