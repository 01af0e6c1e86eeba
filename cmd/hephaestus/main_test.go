package main

import (
	"os"
	"os/exec"
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

func tail(s string) string {
	if len(s) > 400 {
		return "..." + s[len(s)-400:]
	}
	return s
}
