package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// asMainEnv makes the test binary run main() instead of the tests, so the
// smoke below drives the real command — flags, signal handling, exit code
// and all — as a child process.
const asMainEnv = "ICNSERVE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockedBuffer collects a child's output while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// icnserve builds a command that runs this binary as icnserve.
func icnserve(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	return cmd
}

// waitFor polls cond until it holds, failing the test after timeout or as
// soon as the server process has exited.
func waitFor(t *testing.T, exited <-chan struct{}, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		select {
		case <-exited:
			t.Fatalf("icnserve exited while waiting for %s", what)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", timeout, what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

type modelInfo struct {
	Revision         uint64             `json:"revision"`
	ForecastClusters int                `json:"forecast_clusters"`
	Refresh          *serve.RefreshInfo `json:"refresh"`
}

// TestServeSmoke is the binary-level smoke of icnserve: it writes the
// -sample bodies, starts the server with a short refresh interval on a
// kernel-chosen port, and checks what only the real command shows — the
// sample bodies are accepted, an ingest drives the tick loop to a new
// revision that the next forecast echoes, and SIGTERM drains to exit 0
// with the ingested records counted.
func TestServeSmoke(t *testing.T) {
	common := []string{"-seed", "1", "-scale", "0.05", "-trees", "10"}
	dir := t.TempDir()
	if out, err := icnserve(append([]string{"-sample", dir}, common...)...).CombinedOutput(); err != nil {
		t.Fatalf("icnserve -sample: %v\n%s", err, out)
	}
	ingestBody, err := os.ReadFile(filepath.Join(dir, "ingest.bin"))
	if err != nil {
		t.Fatal(err)
	}
	classifyBody, err := os.ReadFile(filepath.Join(dir, "classify.json"))
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr lockedBuffer
	cmd := icnserve(append([]string{"-addr", "127.0.0.1:0", "-refresh-interval", "250ms"}, common...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
		if t.Failed() {
			t.Logf("icnserve stdout:\n%s\nicnserve stderr:\n%s", stdout.String(), stderr.String())
		}
	})

	servingRE := regexp.MustCompile(`serving on (http://\S+) `)
	var base string
	waitFor(t, exited, 2*time.Minute, "the serving line", func() bool {
		m := servingRE.FindStringSubmatch(stdout.String())
		if m != nil {
			base = m[1]
		}
		return m != nil
	})

	post := func(path, contentType string, body []byte, wantStatus int, out any) {
		t.Helper()
		resp, err := http.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, data)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: %v: %s", path, err, data)
		}
	}
	model := func() modelInfo {
		t.Helper()
		resp, err := http.Get(base + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m modelInfo
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	forecastBody := []byte(`{"cluster":0,"horizon":24}`)

	m0 := model()
	if m0.Refresh == nil || m0.ForecastClusters < 1 {
		t.Fatalf("/v1/model %+v: want refresh telemetry and at least one forecast cluster", m0)
	}

	// Classify before the ingest: with nothing folded the tick loop only
	// skips, so no swap can purge the LRU between the two requests.
	var first, second serve.ClassifyResponse
	post("/v1/classify", "application/json", classifyBody, http.StatusOK, &first)
	post("/v1/classify", "application/json", classifyBody, http.StatusOK, &second)
	if len(first.Results) == 0 || second.CacheHits != len(first.Results) {
		t.Fatalf("repeat classify hit the cache %d times for %d verdicts", second.CacheHits, len(first.Results))
	}
	var fc0 serve.ForecastResponse
	post("/v1/forecast", "application/json", forecastBody, http.StatusOK, &fc0)
	if fc0.ModelRevision != m0.Revision {
		t.Fatalf("forecast revision %d, model revision %d", fc0.ModelRevision, m0.Revision)
	}

	var ack struct{ Accepted int }
	post("/v1/ingest", "application/octet-stream", ingestBody, http.StatusAccepted, &ack)
	if ack.Accepted == 0 {
		t.Fatal("ingest accepted no records")
	}

	// The tick loop folds the batch, retrains and swaps. It has converged
	// once a tick skips after the last swap: two polls with no swap
	// between them and a skip in between.
	var cur modelInfo
	prev := m0
	waitFor(t, exited, 2*time.Minute, "the refresh loop to swap and settle", func() bool {
		cur = model()
		settled := cur.Revision != m0.Revision &&
			cur.Refresh.Swaps == prev.Refresh.Swaps && cur.Refresh.Skipped > prev.Refresh.Skipped
		prev = cur
		return settled
	})
	if cur.Refresh.Runs < 1 || cur.Refresh.Swaps < 1 || cur.Refresh.LastRevision != cur.Revision {
		t.Fatalf("refresh telemetry %+v does not account for the swap to revision %d", *cur.Refresh, cur.Revision)
	}
	t.Logf("ingest of %d records: revision %d -> %d, refresh %+v", ack.Accepted, m0.Revision, cur.Revision, *cur.Refresh)

	var fc1 serve.ForecastResponse
	post("/v1/forecast", "application/json", forecastBody, http.StatusOK, &fc1)
	if fc1.ModelRevision != cur.Revision || fc1.Cached {
		t.Fatalf("post-swap forecast: revision %d cached=%v, want revision %d uncached",
			fc1.ModelRevision, fc1.Cached, cur.Revision)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(time.Minute):
		t.Fatal("icnserve did not exit within a minute of SIGTERM")
	}
	if waitErr != nil {
		t.Fatalf("icnserve after SIGTERM: %v", waitErr)
	}
	stopped := regexp.MustCompile(`stopped — (\d+) batches / (\d+) records ingested`).FindStringSubmatch(stdout.String())
	if stopped == nil {
		t.Fatal("no `stopped —` line after SIGTERM")
	}
	if got := stopped[2]; got != strconv.Itoa(ack.Accepted) {
		t.Fatalf("stopped line counts %s records, ingest accepted %d", got, ack.Accepted)
	}
	if stopped[1] != "1" {
		t.Fatalf("stopped line counts %s batches, want 1", stopped[1])
	}
}
