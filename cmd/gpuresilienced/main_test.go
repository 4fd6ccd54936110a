package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// syncBuffer lets the test read the daemon's stdout while run is writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon launches run in a goroutine and returns the served base URL
// plus a shutdown func that stops it and returns run's error.
func startDaemon(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], func() error {
				cancel()
				return <-done
			}
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("daemon exited before listening: %v\noutput: %s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	t.Fatalf("no listen line within deadline: %s", out.String())
	return "", nil
}

func writeLog(t *testing.T, path string) {
	t.Helper()
	base := calib.Op().Start.Add(24 * time.Hour)
	var sb strings.Builder
	for i, code := range []xid.Code{xid.MMU, xid.DBE, xid.MMU} {
		ev := xid.Event{Time: base.Add(time.Duration(i) * time.Minute), Node: "gpub001", GPU: i % 4, Code: code}
		sb.WriteString(syslog.FormatLine(ev, 1, "t") + "\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// waitSealed polls the daemon's /healthz for up to 10 s until it reports
// want sealed raw events, and says whether it did.
func waitSealed(base string, want int) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/healthz")
		if err == nil {
			var hz struct {
				Status struct {
					SealedRawEvents int `json:"sealedRawEvents"`
				} `json:"status"`
			}
			decErr := json.NewDecoder(r.Body).Decode(&hz)
			r.Body.Close()
			if decErr == nil && r.StatusCode == http.StatusOK && hz.Status.SealedRawEvents == want {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestDaemonSmoke is the end-to-end command check: start against a real log
// file, wait for the tables to fill, exercise the ETag cycle, shut down
// cleanly, and verify the checkpoint enables a quiet restart.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.txt")
	cpPath := filepath.Join(dir, "checkpoint.json")
	writeLog(t, logPath)

	args := []string{
		"-logs", logPath,
		"-listen", "localhost:0",
		"-checkpoint", cpPath,
		"-poll", "5ms", "-refresh", "5ms", "-idle-seal", "25ms",
	}
	base, shutdown := startDaemon(t, args)

	// Wait for the idle seal to publish a snapshot with all three events;
	// until then each snapshot may change the table and its ETag.
	if !waitSealed(base, 3) {
		t.Fatal("daemon never reported all three events sealed")
	}

	r, err := http.Get(base + "/v1/tables/xidstat")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("xidstat status %d", r.StatusCode)
	}
	tag := r.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on table response")
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/tables/xidstat", nil)
	req.Header.Set("If-None-Match", tag)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", r2.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}

	// Restart against the same log: the checkpoint must skip re-ingestion.
	base2, shutdown2 := startDaemon(t, args)
	if !waitSealed(base2, 3) {
		t.Fatal("restarted daemon never reported the checkpointed events")
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRunFlagErrors: bad invocations fail fast instead of starting a server.
func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, nil, &out); err == nil {
		t.Fatal("no -logs accepted")
	}
	if err := run(ctx, []string{"-logs", "x", "-listen", "not an address"}, &out); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run(ctx, []string{"-data", t.TempDir()}, &out); err == nil {
		t.Fatal("dataset without a manifest accepted")
	}
}

// TestRunExpandsGlobs: a -logs glob that matches nothing fails at startup
// (literal paths are kept for tailing even before they exist).
func TestRunExpandsGlobs(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-logs", filepath.Join(dir, "*.log")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "matched no files") {
		t.Fatalf("unmatched glob: err = %v", err)
	}
}
