// Client: the coordinator's view of one worker, a campaign server
// (cmd/server) that it talks to through the ordinary campaign API. A
// lease is a shard submission, a heartbeat is an inspect, and the
// shipment is the campaign's journal. Every call is time-bounded — a
// worker that answers nothing within the budget is a failed call,
// never a hung coordinator — and the transport is plain HTTP, so a
// worker can be a spawned local process or an in-process handler under
// test.

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cli"
)

// Client talks to one worker.
type Client struct {
	name string
	base string
	hc   *http.Client
}

// NewClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:9000"). timeout bounds every individual call; 0
// means 5 seconds.
func NewClient(name, base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return NewClientWith(name, base, &http.Client{Timeout: timeout})
}

// NewClientWith returns a client over a caller-supplied http.Client —
// the in-process test hook (httptest servers, fault-injecting
// transports). The http.Client's own Timeout applies.
func NewClientWith(name, base string, hc *http.Client) *Client {
	return &Client{name: name, base: strings.TrimRight(base, "/"), hc: hc}
}

// Name returns the worker's label for ledgers and logs.
func (c *Client) Name() string { return c.name }

// do performs one call. A 2xx answer's body is JSON-decoded into out
// when out is a value pointer, or read whole when it is a *[]byte.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s %s: %w", c.name, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fabric: %s %s: %s: %s", c.name, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// campaignView is the part of the server's campaign view the
// coordinator reads.
type campaignView struct {
	ID     string     `json:"id"`
	Config cli.Config `json:"config"`
	Status struct {
		State string `json:"state"`
	} `json:"status"`
}

// Lease submits one shard campaign (cfg carries the shard range) and
// returns the campaign ID the worker assigned. A busy worker refuses
// with 409.
func (c *Client) Lease(ctx context.Context, cfg cli.Config) (string, error) {
	var v campaignView
	err := c.do(ctx, http.MethodPost, "/api/campaigns", cfg, &v)
	return v.ID, err
}

// Status inspects one lease's campaign — the heartbeat — and returns
// its lifecycle state.
func (c *Client) Status(ctx context.Context, id string) (string, error) {
	var v campaignView
	err := c.do(ctx, http.MethodGet, "/api/campaigns/"+id, nil, &v)
	return v.Status.State, err
}

// Journal fetches the journal of an ended lease.
func (c *Client) Journal(ctx context.Context, id string) ([]byte, error) {
	var b []byte
	err := c.do(ctx, http.MethodGet, "/api/campaigns/"+id+"/journal", nil, &b)
	return b, err
}

// Cancel asks the worker to stop a lease; best-effort by design.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/api/campaigns/"+id+"/cancel", nil, nil)
}

// CancelShard cancels every campaign of one shard attempt on the
// worker: the cleanup for a lease whose grant reply never arrived, so
// its ID is unknown.
func (c *Client) CancelShard(ctx context.Context, shard cli.ShardRange) error {
	var list struct {
		Campaigns []campaignView `json:"campaigns"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/campaigns", nil, &list); err != nil {
		return err
	}
	for _, v := range list.Campaigns {
		if v.Config.Shard != nil && *v.Config.Shard == shard {
			if err := c.Cancel(ctx, v.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// Healthz answers whether the worker is reachable.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
