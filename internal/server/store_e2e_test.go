package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestRestartWarmFromDiskTier is the durability acceptance test: a
// result synthesized by one server life must be served by the next life
// over the same store directory byte-identically from the disk tier,
// with X-Compactd-Cache: disk, and be a memory hit after promotion.
func TestRestartWarmFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	req := circuitRequest(`{"method": "heuristic"}`)

	// First life: populate both tiers, then shut down.
	srvA, err := New(context.Background(), Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := newHTTPServer(t, srvA)
	status, disp, first := post(t, tsA.URL, req)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("first life: status %d disposition %q, body %s", status, disp, first)
	}
	tsA.Close()
	closeServer(t, srvA)

	// Second life: fresh process state, same directory.
	ctxB, cancelB := context.WithCancel(context.Background())
	t.Cleanup(cancelB)
	srvB, err := New(ctxB, Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, srvB)
	tsB := newHTTPServer(t, srvB)

	status, disp, warm := post(t, tsB.URL, req)
	if status != http.StatusOK {
		t.Fatalf("after restart: status %d, body %s", status, warm)
	}
	if disp != "disk" {
		t.Fatalf("after restart: disposition %q, want disk", disp)
	}
	if string(warm) != string(first) {
		t.Fatalf("disk-tier body differs from the original:\nwas: %s\nnow: %s", first, warm)
	}

	// The disk hit promoted the entry back into memory.
	status, disp, again := post(t, tsB.URL, req)
	if status != http.StatusOK || disp != "hit" {
		t.Fatalf("after promotion: status %d disposition %q", status, disp)
	}
	if string(again) != string(first) {
		t.Fatal("memory-promoted body differs from the original")
	}

	// The disk-tier counters moved.
	resp, err := http.Get(tsB.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc struct {
		Compactd struct {
			DiskHits     int64 `json:"cache_disk_hits_total"`
			StoreEntries int64 `json:"store_entries"`
			StoreBytes   int64 `json:"store_bytes"`
		} `json:"compactd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Compactd.DiskHits != 1 || doc.Compactd.StoreEntries != 1 || doc.Compactd.StoreBytes <= 0 {
		t.Fatalf("store counters off: %+v", doc.Compactd)
	}
}

// TestJobResultSurvivesRestart checks a done job whose record and result
// both persisted is fully servable by the next server life: status done,
// result from the disk tier, byte-identical.
func TestJobResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := circuitRequest(`{"method": "heuristic"}`)

	srvA, err := New(context.Background(), Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := newHTTPServer(t, srvA)
	status, sub, raw := doJSON(t, http.MethodPost, tsA.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	doc := pollJob(t, tsA.URL, sub.StatusURL, 30*time.Second)
	if doc.Status != "done" {
		t.Fatalf("job finished %q", doc.Status)
	}
	resp, err := http.Get(tsA.URL + doc.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	tsA.Close()
	closeServer(t, srvA)

	ctxB, cancelB := context.WithCancel(context.Background())
	t.Cleanup(cancelB)
	srvB, err := New(ctxB, Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, srvB)
	tsB := newHTTPServer(t, srvB)

	status, doc2, raw := doJSON(t, http.MethodGet, tsB.URL+sub.StatusURL, "")
	if status != http.StatusOK || doc2.Status != "done" {
		t.Fatalf("recovered job: status %d, body %s", status, raw)
	}
	resp, err = http.Get(tsB.URL + doc2.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	disp := resp.Header.Get("X-Compactd-Cache")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || disp != "disk" {
		t.Fatalf("recovered result: status %d disposition %q, body %s", resp.StatusCode, disp, warm)
	}
	if string(warm) != string(first) {
		t.Fatal("recovered job result differs from the original")
	}
}
