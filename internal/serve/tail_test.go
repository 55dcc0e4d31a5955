package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// driveSomeLoad joins tasks, reweights them, and advances the clock so
// the shard accumulates a non-trivial applied log plus pending state.
func driveSomeLoad(t *testing.T, ts *httptest.Server, shard int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"op":"join","task":"T%d","weight":"1/8"}`, i)
		resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/commands", ts.URL, shard), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join %d: %d", i, resp.StatusCode)
		}
	}
	for s := 0; s < 3; s++ {
		resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/advance", ts.URL, shard), "application/json", strings.NewReader(`{"slots":2}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		body := fmt.Sprintf(`{"op":"reweight","task":"T%d","weight":"1/4"}`, s)
		resp, err = http.Post(fmt.Sprintf("%s/v1/shards/%d/commands", ts.URL, shard), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

// TestTailRoundTrip: the /log endpoint's complete tail must replay
// byte-identically (VerifyTail), an incremental tail must splice onto
// its prefix into the same complete tail, and InstallShard must accept
// that tail and serve the same digest.
func TestTailRoundTrip(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	driveSomeLoad(t, ts, 0)

	fetch := func(from int) *Tail {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/shards/0/log?from=%d", ts.URL, from))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("log from=%d: %d", from, resp.StatusCode)
		}
		var tail Tail
		if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
			t.Fatal(err)
		}
		return &tail
	}

	full := fetch(0)
	if full.Total == 0 || len(full.Commands) != full.Total {
		t.Fatalf("full tail carries %d of %d commands", len(full.Commands), full.Total)
	}
	digest, err := VerifyTail(full)
	if err != nil {
		t.Fatal(err)
	}
	if digest != full.Digest {
		t.Fatalf("replayed digest %016x != tail digest %016x", digest, full.Digest)
	}

	// Incremental tail splices onto the prefix it was cut from.
	mid := full.Total / 2
	delta := fetch(mid)
	if delta.From != mid {
		t.Fatalf("delta.From = %d, want %d", delta.From, mid)
	}
	if delta.Total != full.Total || len(delta.Commands) != full.Total-mid {
		t.Fatalf("delta carries %d commands to total %d, want %d to %d",
			len(delta.Commands), delta.Total, full.Total-mid, full.Total)
	}
	snap := *delta
	snap.From = 0
	snap.Commands = append(append([]core.Command(nil), full.Commands[:mid]...), delta.Commands...)
	if len(snap.Commands) != full.Total {
		t.Fatalf("spliced log has %d commands, want %d", len(snap.Commands), full.Total)
	}
	if d, err := VerifyTail(&snap); err != nil || d != full.Digest {
		t.Fatalf("spliced tail replays to %016x (err %v), want %016x", d, err, full.Digest)
	}

	// A second server installs the spliced tail live and serves the digest.
	dst, err := New(Options{Shards: 1, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.InstallShard(&snap); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ShardTail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != full.Digest || got.Now != full.Now {
		t.Fatalf("installed shard at (now=%d, %016x), want (now=%d, %016x)",
			got.Now, got.Digest, full.Now, full.Digest)
	}

	// A bad from is a clean 400, not a hang.
	resp, err := http.Get(ts.URL + "/v1/shards/0/log?from=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized from answered %d, want 400", resp.StatusCode)
	}
}

// TestInstallShardSwapsLive: installing a complete tail over a running
// shard keeps the slot serving — the replaced shard's digest is gone,
// the tail's is live.
func TestInstallShardSwapsLive(t *testing.T) {
	src, err := New(Options{Shards: 2, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	defer src.Stop()
	ts := httptest.NewServer(src.Handler())
	defer ts.Close()
	driveSomeLoad(t, ts, 1)

	tail, err := src.ShardTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(Options{Shards: 2, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.InstallShard(tail); err != nil {
		t.Fatal(err)
	}
	// The other slot is untouched, the installed one answers with the
	// migrated clock.
	if now, err := dst.Advance(0, 1); err != nil || now != 1 {
		t.Fatalf("slot 0 advance: now=%d err=%v, want 1", now, err)
	}
	got, err := dst.ShardTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != tail.Digest {
		t.Fatalf("slot 1 digest %016x, want %016x", got.Digest, tail.Digest)
	}
}
