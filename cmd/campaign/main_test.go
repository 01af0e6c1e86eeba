package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the campaign command:
// with CAMPAIGN_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFiguresRejectUnreadFlags: a flag the chosen figure does not read
// exits 2 naming it, and before any output file or state directory is
// created; the flags it does read still run.
func TestFiguresRejectUnreadFlags(t *testing.T) {
	dir := t.TempDir()
	state, reportJSON := filepath.Join(dir, "state"), filepath.Join(dir, "report.json")
	fabricState := filepath.Join(dir, "fabric-state")
	for _, tc := range []struct {
		args   []string
		unread []string // nil: the command must succeed
	}{
		{[]string{"-fig", "9", "-covn", "5", "-fuel", "10", "-chaos", "0.9", "-state", state, "-report-json", reportJSON},
			[]string{"-fuel", "-chaos", "-state", "-report-json"}},
		{[]string{"-fig", "10", "-n", "5", "-resume", "-stress-every", "4"}, []string{"-n", "-resume", "-stress-every"}},
		{[]string{"-fig", "synth", "-oracle", "differential", "-synth-every", "2"}, []string{"-oracle", "-synth-every"}},
		{[]string{"-fig", "9", "-synth-corpus", "corpus.json", "-shards", "2"}, []string{"-synth-corpus", "-shards"}},
		{[]string{"-fig", "7c", "-covn", "5"}, []string{"-covn"}},
		{[]string{"-fig", "8", "-n", "4", "-covn", "5"}, []string{"-covn"}},
		{[]string{"-fig", "7", "-n", "4"}, []string{"-fig"}},
		// Fabric flags need -shards; a sharded run reads none of the
		// single-process durability and progress flags; attached
		// workers (-fabric-workers) read none of the spawn flags.
		{[]string{"-fig", "7a", "-n", "4", "-worker-bin", "/nonexistent", "-fabric-procs", "3"},
			[]string{"-worker-bin", "-fabric-procs"}},
		{[]string{"-fig", "all", "-n", "4", "-fabric-state", fabricState, "-fabric-timeout", "1s"},
			[]string{"-fabric-state", "-fabric-timeout"}},
		{[]string{"-fig", "7c", "-n", "4", "-shards", "2", "-worker-bin", "/nonexistent",
			"-state", state, "-resume", "-heartbeat", "1s", "-stats"},
			[]string{"-state", "-resume", "-heartbeat", "-stats"}},
		{[]string{"-fig", "8", "-n", "4", "-shards", "2", "-fabric-workers", "127.0.0.1:1",
			"-worker-bin", "/nonexistent", "-fabric-procs", "3"},
			[]string{"-worker-bin", "-fabric-procs"}},
		// A removed flag is unknown, so it is refused like any other.
		{[]string{"-fig", "7a", "-n", "4", "-shards", "2", "-fabric-chaos", "0.1"}, []string{"-fabric-chaos"}},
		{[]string{"-fig", "9", "-covn", "2", "-seed", "3", "-workers", "1", "-stats"}, nil},
		{[]string{"-fig", "7c", "-n", "4", "-workers", "1"}, nil},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "CAMPAIGN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		name := strings.Join(tc.args, " ")
		if tc.unread == nil {
			if err != nil {
				t.Errorf("campaign %s: %v\n%s", name, err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("campaign %s: want exit 2, got %v", name, err)
			continue
		}
		for _, f := range tc.unread {
			if !strings.Contains(stderr.String(), f) {
				t.Errorf("campaign %s: error does not name %s: %q", name, f, stderr.String())
			}
		}
	}
	for _, p := range []string{state, reportJSON, fabricState} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a rejected flag created %s", p)
		}
	}
}

// TestCoverageFiguresStdoutIsStable: every coverage figure prints the
// same bytes on every run and at any worker count.
func TestCoverageFiguresStdoutIsStable(t *testing.T) {
	for _, fig := range []string{"9", "10", "synth"} {
		var first string
		for i, workers := range []string{"1", "4", "4"} {
			cmd := exec.Command(os.Args[0], "-fig", fig, "-covn", "40", "-seed", "3", "-workers", workers)
			cmd.Env = append(os.Environ(), "CAMPAIGN_MAIN=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("campaign -fig %s -workers %s: %v", fig, workers, err)
			}
			if i == 0 {
				first = string(out)
			} else if string(out) != first {
				t.Errorf("campaign -fig %s stdout differs at -workers %s (run %d):\n%s\nvs\n%s", fig, workers, i+1, out, first)
			}
		}
	}
}

// TestExperimentsMeasuredResults: EXPERIMENTS.md's "Measured results"
// block is the documented command's stdout, at one worker and at eight.
// Lines compare with trailing spaces trimmed, and the output's final
// blank line is not part of the block.
func TestExperimentsMeasuredResults(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := measuredResults(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "8"} {
		cmd := exec.Command(os.Args[0], "-fig", "all", "-n", "350", "-seed", "0", "-covn", "120", "-workers", workers)
		cmd.Env = append(os.Environ(), "CAMPAIGN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("campaign -workers %s: %v", workers, err)
		}
		got := trimLines(string(out))
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("-workers %s: EXPERIMENTS.md differs from the command at block line %d:\n got %q\nwant %q", workers, i+1, g, w)
				break
			}
		}
	}
}

// measuredResults returns the first fenced block after the "Measured
// results" heading, its lines trimmed of trailing spaces.
func measuredResults(doc string) (string, error) {
	_, rest, ok := strings.Cut(doc, "\n## Measured results\n")
	if !ok {
		return "", errors.New("EXPERIMENTS.md has no Measured results section")
	}
	_, rest, ok = strings.Cut(rest, "\n```\n")
	if !ok {
		return "", errors.New("Measured results has no fenced block")
	}
	block, _, ok := strings.Cut(rest, "\n```\n")
	if !ok {
		return "", errors.New("Measured results block is not closed")
	}
	return trimLines(block), nil
}

// trimLines trims trailing spaces from every line and drops trailing
// blank lines.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}
