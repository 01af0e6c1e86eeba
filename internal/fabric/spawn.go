// Spawning local worker processes: cmd/campaign -shards uses this to
// bring up N cmd/worker processes, parse each one's announce line for
// its address and pid, and hand the coordinator ready clients. The
// pids are re-printed on the campaign's own stdout so a chaos harness
// (CI's soak step) can kill -9 or SIGSTOP specific workers mid-run.

package fabric

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// announceRE matches cmd/worker's startup line:
// "worker NAME listening on http://ADDR pid=PID".
var announceRE = regexp.MustCompile(`^worker (\S+) listening on (http://\S+) pid=(\d+)$`)

// SpawnedWorker is one locally spawned cmd/worker process.
type SpawnedWorker struct {
	Client *Client
	Name   string
	Addr   string
	Pid    int
	cmd    *exec.Cmd
}

// SpawnOptions configures SpawnWorkers.
type SpawnOptions struct {
	// Bin is the cmd/worker binary path.
	Bin string
	// Count is how many workers to spawn.
	Count int
	// Dir is the parent scratch directory; each worker gets Dir/worker-i.
	// Empty means each worker picks its own temp dir.
	Dir string
	// Chaos, when non-nil, is forwarded to every worker as chaos flags.
	Chaos *ChaosOptions
	// CallTimeout is the per-call client budget against these workers;
	// 0 means the client default.
	CallTimeout time.Duration
	// Announce, when non-nil, receives one line per worker with its
	// name, pid, and address — the hook CI's chaos soak parses.
	Announce io.Writer
}

// SpawnWorkers starts opts.Count worker processes and returns them
// with connected clients. The returned stop function kills any still
// alive and reaps them; call it even after a successful campaign.
func SpawnWorkers(opts SpawnOptions) ([]*SpawnedWorker, func(), error) {
	if opts.Bin == "" {
		return nil, nil, fmt.Errorf("fabric: no worker binary")
	}
	if opts.Count <= 0 {
		return nil, nil, fmt.Errorf("fabric: spawn count %d", opts.Count)
	}
	var workers []*SpawnedWorker
	stop := func() {
		for _, w := range workers {
			if w.cmd.Process != nil {
				w.cmd.Process.Kill() //nolint:errcheck // already-dead workers are fine
			}
			w.cmd.Wait() //nolint:errcheck // reap; exit status is irrelevant
		}
	}
	for i := 0; i < opts.Count; i++ {
		name := fmt.Sprintf("w%d", i)
		args := []string{"-addr", "127.0.0.1:0", "-name", name}
		if opts.Dir != "" {
			args = append(args, "-dir", filepath.Join(opts.Dir, "worker-"+name))
		}
		if opts.Chaos.Enabled() {
			args = append(args,
				"-chaos-seed", strconv.FormatInt(opts.Chaos.Seed, 10),
				"-chaos-kill", fmt.Sprintf("%g", opts.Chaos.KillRate),
				"-chaos-stall", fmt.Sprintf("%g", opts.Chaos.StallRate),
				"-chaos-corrupt", fmt.Sprintf("%g", opts.Chaos.CorruptRate),
			)
		}
		cmd := exec.Command(opts.Bin, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("fabric: spawn %s: %w", name, err)
		}
		w := &SpawnedWorker{Name: name, cmd: cmd}
		workers = append(workers, w)

		// Parse the announce line; drain the rest of stdout in the
		// background so the worker never blocks on a full pipe.
		scanner := bufio.NewScanner(stdout)
		announced := false
		for scanner.Scan() {
			m := announceRE.FindStringSubmatch(scanner.Text())
			if m == nil {
				continue
			}
			w.Name, w.Addr = m[1], m[2]
			w.Pid, _ = strconv.Atoi(m[3])
			announced = true
			break
		}
		if !announced {
			stop()
			return nil, nil, fmt.Errorf("fabric: worker %s exited before announcing", name)
		}
		go func() {
			for scanner.Scan() {
			}
		}()
		w.Client = NewClient(w.Name, w.Addr, opts.CallTimeout)
		if opts.Announce != nil {
			fmt.Fprintf(opts.Announce, "fabric worker %s: pid=%d addr=%s\n", w.Name, w.Pid, w.Addr)
		}
	}
	return workers, stop, nil
}

// Clients extracts the coordinator-facing clients of spawned workers.
func Clients(workers []*SpawnedWorker) []*Client {
	out := make([]*Client, len(workers))
	for i, w := range workers {
		out[i] = w.Client
	}
	return out
}
