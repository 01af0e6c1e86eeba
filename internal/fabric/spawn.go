// Spawning local worker processes: cmd/campaign -shards uses this to
// bring up N campaign servers (cmd/server -max-running 1), parse each
// one's announce line for its address, and hand the coordinator ready
// clients. The pids are re-printed on the campaign's own stdout so a
// chaos harness (CI's soak step) can kill -9 or SIGSTOP specific
// workers mid-run.

package fabric

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"time"
)

// announceRE matches cmd/server's startup line:
// "fuzzing server listening on http://ADDR".
var announceRE = regexp.MustCompile(`^fuzzing server listening on (http://\S+)$`)

// SpawnedWorker is one locally spawned cmd/server process.
type SpawnedWorker struct {
	Client *Client
	Name   string
	Addr   string
	Pid    int
	cmd    *exec.Cmd
}

// SpawnOptions configures SpawnWorkers.
type SpawnOptions struct {
	// Bin is the cmd/server binary path.
	Bin string
	// Count is how many workers to spawn.
	Count int
	// Dir is the parent scratch directory; each worker's data directory
	// is Dir/worker-wN. Empty means a temporary directory, removed by
	// the stop function.
	Dir string
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
	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fabric-workers-*")
		if err != nil {
			return nil, nil, err
		}
		dir = tmp
	}
	var workers []*SpawnedWorker
	stop := func() {
		for _, w := range workers {
			if w.cmd.Process != nil {
				w.cmd.Process.Kill() //nolint:errcheck // already-dead workers are fine
			}
			w.cmd.Wait() //nolint:errcheck // reap; exit status is irrelevant
		}
		if opts.Dir == "" {
			os.RemoveAll(dir) //nolint:errcheck // temporary state
		}
	}
	for i := 0; i < opts.Count; i++ {
		name := fmt.Sprintf("w%d", i)
		cmd := exec.Command(opts.Bin, "-addr", "127.0.0.1:0", "-max-running", "1",
			"-data", filepath.Join(dir, "worker-"+name))
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
		w := &SpawnedWorker{Name: name, Pid: cmd.Process.Pid, cmd: cmd}
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
			w.Addr = m[1]
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
