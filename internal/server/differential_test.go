package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/cli"
)

// TestServerDifferentialCampaignMatchesInProcess: a differential-oracle
// submission is hosted like any other campaign — the oracle mode rides
// in the config JSON — and the served report document, disagreement
// records and pair matrix included, byte-matches the in-process run of
// the same options. The status view exposes the live disagreement
// count.
func TestServerDifferentialCampaignMatchesInProcess(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	defer s.Close()
	id := submit(t, ts, map[string]any{
		"seed": 5, "programs": 30, "workers": 2, "oracle": "differential",
	})
	waitState(t, ts, id, "done")

	code, got := request(t, ts, "GET", "/api/campaigns/"+id+"/report", nil)
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	var doc struct {
		Disagreements []struct {
			ID       string   `json:"id"`
			Suspects []string `json:"suspects"`
		} `json:"disagreements"`
		DiffMatrix map[string]int `json:"diff_matrix"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Disagreements) == 0 {
		t.Fatal("served differential report carries no disagreements")
	}
	if len(doc.DiffMatrix) == 0 {
		t.Error("served differential report carries no pair matrix")
	}

	want := goldenDoc(t, func(c *cli.Config) {
		c.Seed, c.Programs, c.Workers, c.Oracle = 5, 30, 2, "differential"
	})
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP differential report differs from in-process run:\n%s\nvs\n%s", got, want)
	}

	// The status view counts distinct disagreements for dashboards.
	code, raw := request(t, ts, "GET", "/api/campaigns/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("inspect: status %d: %s", code, raw)
	}
	var view struct {
		Status struct {
			Disagreements int `json:"disagreements"`
		} `json:"status"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.Status.Disagreements != len(doc.Disagreements) {
		t.Errorf("status reports %d disagreements, report has %d",
			view.Status.Disagreements, len(doc.Disagreements))
	}

	// An invalid oracle mode is rejected at submission time.
	if code, _ := request(t, ts, "POST", "/api/campaigns",
		map[string]any{"programs": 5, "oracle": "majority"}); code != http.StatusBadRequest {
		t.Errorf("bad oracle mode admitted with status %d", code)
	}
}
