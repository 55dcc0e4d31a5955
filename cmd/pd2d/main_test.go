package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frac"
	"repro/internal/serve"
)

func post(t *testing.T, base string, shard int, path, body string) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/%s", base, shard, path), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard %d %s %s: HTTP %d", shard, path, body, resp.StatusCode)
	}
}

// TestSnapshotFilesRoundTrip: the complete tails pd2d writes on
// shutdown load back, and serve.New restores every shard to the same
// record — clock, log, staged batch, admission books and engine digest.
func TestSnapshotFilesRoundTrip(t *testing.T) {
	cfg := serve.ShardConfig{M: 2, Policy: "hybrid", OIThreshold: frac.New(1, 8)}
	src, err := serve.New(serve.Options{Shards: 2, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	ts := httptest.NewServer(src.Handler())
	for shard := 0; shard < 2; shard++ {
		post(t, ts.URL, shard, "commands", `[{"op":"join","task":"A","weight":"1/4"},{"op":"join","task":"B","weight":"1/3"}]`)
		post(t, ts.URL, shard, "advance", `{"slots":4}`)
		post(t, ts.URL, shard, "commands", `{"op":"reweight","task":"A","weight":"1/2"}`)
		post(t, ts.URL, shard, "advance", fmt.Sprintf(`{"slots":%d}`, 3+shard))
		post(t, ts.URL, shard, "commands", `{"op":"leave","task":"B"}`) // staged, not applied
	}
	ts.Close()
	src.Stop()
	want := src.Snapshots()

	dir := t.TempDir()
	if err := writeSnapshots(dir, want); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := serve.New(serve.Options{Shards: 2, Config: cfg, Snapshots: loaded})
	if err != nil {
		t.Fatal(err)
	}
	got := dst.Snapshots()
	for i := range want {
		if want[i].Total == 0 || len(want[i].Batch) == 0 {
			t.Fatalf("shard %d: written tail holds %d commands and %d staged; the round trip would be vacuous",
				i, want[i].Total, len(want[i].Batch))
		}
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if string(g) != string(w) {
			t.Errorf("shard %d: restored tail differs from the written one:\nwrote    %s\nrestored %s", i, w, g)
		}
	}
}

// TestLoadSnapshotsRefusesOldFormat: a version-1 snapshot document
// ("version", "log") is not a tail. Loading it must fail and name the
// file instead of restoring an empty shard.
func TestLoadSnapshotsRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	old := `{"version":1,"shard":0,"config":{"m":2,"oi_threshold":"0"},"now":4,` +
		`"seed":{"M":2,"Tasks":null},"log":[],"admission":{"names":null,"requested":null},"digest":1}`
	path := filepath.Join(dir, "shard-0.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadSnapshots(dir)
	if err == nil {
		t.Fatal("a version-1 snapshot loaded without error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}
}
