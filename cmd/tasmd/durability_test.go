package main

// Tests for the durability-facing surface of the daemon: the request
// body cap (413), the on-demand integrity scrub endpoint, and the
// quarantine accounting exported through query stats and /metrics.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasm/corpus/shard"
)

// TestMaxBodyBytes413: bodies over -max-body-bytes are rejected with
// 413 on both the query and ingest paths, and rejected ingests count
// toward tasmd_ingest_errors_total.
func TestMaxBodyBytes413(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{maxBodyBytes: 128})

	big := `{"query":"{a{b}}","k":1,"pad":"` + strings.Repeat("x", 256) + `"}`
	if w := doJSON(t, h, "POST", "/v1/topk", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized topk body: status %d, want 413 (%s)", w.Code, w.Body)
	}
	if w := doJSON(t, h, "POST", "/v1/topk-batch", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: status %d, want 413 (%s)", w.Code, w.Body)
	}
	w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "big", XML: "<r>" + strings.Repeat("<a>x</a>", 64) + "</r>"})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest body: status %d, want 413 (%s)", w.Code, w.Body)
	}

	// A well-sized request must still work: the cap rejects bodies, not
	// the endpoint.
	ingest(t, h, "ok", "<r><a>x</a></r>")

	body := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "tasmd_ingest_errors_total 1") {
		t.Errorf("metrics missing tasmd_ingest_errors_total 1 after a 413 ingest\n%s", body)
	}
}

// TestIngestErrorMetric: malformed and duplicate ingests advance the
// error counter; successful ones do not.
func TestIngestErrorMetric(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "a", "<r><x>1</x></r>")
	if w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "a", XML: "<r/>"}); w.Code != http.StatusConflict {
		t.Fatalf("duplicate ingest: status %d, want 409", w.Code)
	}
	if w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "b", XML: "<r><unclosed>"}); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed XML ingest: status %d, want 400", w.Code)
	}
	body := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "tasmd_ingest_errors_total 2") {
		t.Errorf("metrics missing tasmd_ingest_errors_total 2\n%s", body)
	}
	if !strings.Contains(body, "tasmd_ingests_total 1") {
		t.Errorf("metrics missing tasmd_ingests_total 1\n%s", body)
	}
}

// TestAdminVerifyQuarantines: POST /v1/admin/verify on a leaf checksums
// every referenced file, quarantines the corrupt document, and the loss
// is visible in query stats and the tasmd_quarantined_docs gauge.
func TestAdminVerifyQuarantines(t *testing.T) {
	h, c := newTestServer(t, serverConfig{})
	ingest(t, h, "good", "<r><a><b>keep</b></a></r>")
	ingest(t, h, "bad", "<r><a><b>doomed</b></a></r>")

	// Flip one byte in the middle of the second document's store file.
	store := filepath.Join(c.Dir(), "docs", "2.store")
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(store, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w := doJSON(t, h, "POST", "/v1/admin/verify", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("admin verify: status %d: %s", w.Code, w.Body)
	}
	var rep struct {
		Checked          int      `json:"checked"`
		Quarantined      []string `json:"quarantined"`
		QuarantinedTotal int      `json:"quarantinedTotal"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("%v in %s", err, w.Body)
	}
	if rep.Checked != 2 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != "bad" || rep.QuarantinedTotal != 1 {
		t.Fatalf("verify report %+v, want checked=2 quarantined=[bad] total=1", rep)
	}

	// The survivor still answers, and the response accounts for the loss.
	resp := topk(t, h, shard.Request{Query: "{a{b{keep}}}", K: 2})
	if len(resp.Matches) == 0 || resp.Matches[0].Doc != "good" {
		t.Fatalf("post-quarantine topk: %+v", resp.Matches)
	}
	if resp.Stats.Quarantined != 1 {
		t.Fatalf("stats.quarantined = %d, want 1", resp.Stats.Quarantined)
	}
	body := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "tasmd_quarantined_docs 1") {
		t.Errorf("metrics missing tasmd_quarantined_docs 1\n%s", body)
	}

	// A second scrub over the now-clean corpus quarantines nothing more.
	w = doJSON(t, h, "POST", "/v1/admin/verify", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("second verify: status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || len(rep.Quarantined) != 0 || rep.QuarantinedTotal != 1 {
		t.Fatalf("second verify report %+v, want checked=1 quarantined=[] total=1", rep)
	}
}

// TestAdminVerifyRouterIs501: a router has no local files to scrub;
// each leaf owns its own disk.
func TestAdminVerifyRouterIs501(t *testing.T) {
	cl, _ := newLeaf(t, map[string]string{"d": "<r><x>1</x></r>"})
	router := newServer(shard.NewGroup(cl), nil, serverConfig{})
	w := doJSON(t, router, "POST", "/v1/admin/verify", nil)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("router admin verify: status %d, want 501 (%s)", w.Code, w.Body)
	}
}
