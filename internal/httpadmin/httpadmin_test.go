package httpadmin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skute/internal/telemetry"
)

type snapshot struct {
	Name string
	Keys int
}

func statsOne() any { return 1 }

func testHandler() http.Handler {
	reg := telemetry.NewRegistry()
	var checkpoints telemetry.Counter
	checkpoints.Add(3)
	reg.Gauge("checkpoints_total", checkpoints.Value)
	reg.Gauge("wal_segments", func() int64 { return 2 })
	trace := func() any {
		return []map[string]string{{"node": "n0", "kind": "epoch", "detail": "repairs=1"}}
	}
	h := reg.Histogram("cluster_get_default_ns")
	for i := 1; i <= 100; i++ {
		h.Record(int64(i) * int64(time.Millisecond))
	}
	reg.Gauge("load_errors_total", func() int64 { return 1 })
	return Handler(func() any { return snapshot{Name: "n0", Keys: 42} }, trace, reg)
}

// metricsJSON is the JSON shape of GET /metrics.
type metricsJSON struct {
	Histograms map[string]telemetry.Stats `json:"histograms"`
	Counters   map[string]int64           `json:"counters"`
}

func getMetrics(t *testing.T, url string) metricsJSON {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var got metricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "ok\n" {
		t.Errorf("body = %q", body)
	}
}

func TestStats(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var got snapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "n0" || got.Keys != 42 {
		t.Errorf("snapshot = %+v", got)
	}
}

func TestUnknownPathAndMethod(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
	post, err := http.Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status = %d", post.StatusCode)
	}
	// Counters are served on /metrics; the old /counters path is gone.
	gone, err := http.Get(srv.URL + "/counters")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("GET /counters status = %d", gone.StatusCode)
	}
}

// TestCounters: counters and gauges registered on the one registry are
// sampled live on GET /metrics, next to the histograms.
func TestCounters(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	got := getMetrics(t, srv.URL).Counters
	if got["checkpoints_total"] != 3 || got["wal_segments"] != 2 {
		t.Errorf("counters = %v", got)
	}
}

func TestTrace(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["kind"] != "epoch" {
		t.Errorf("trace = %v", got)
	}
}

func TestMetricsJSON(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	got := getMetrics(t, srv.URL)
	st, ok := got.Histograms["cluster_get_default_ns"]
	if !ok {
		t.Fatalf("histogram missing: %v", got.Histograms)
	}
	if st.Count != 100 || st.P50NS <= 0 || st.P99NS < st.P50NS {
		t.Errorf("stats = %+v", st)
	}
	if got.Counters["load_errors_total"] != 1 {
		t.Errorf("counters = %v", got.Counters)
	}
}

func TestMetricsText(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"cluster_get_default_ns", "p99=", "checkpoints_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text body lacks %q: %q", want, body)
		}
	}
}

func TestMetricsNilRegistry(t *testing.T) {
	srv := httptest.NewServer(Handler(statsOne, nil, nil))
	defer srv.Close()
	if got := getMetrics(t, srv.URL); len(got.Histograms) != 0 {
		t.Errorf("nil registry histograms = %v", got.Histograms)
	}
}

func TestTraceNilSource(t *testing.T) {
	srv := httptest.NewServer(Handler(statsOne, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("nil-source trace = %v", got)
	}
}

// TestCountersNilRegistry: without a registry, /metrics serves an empty
// counters object rather than null.
func TestCountersNilRegistry(t *testing.T) {
	srv := httptest.NewServer(Handler(statsOne, nil, nil))
	defer srv.Close()
	got := getMetrics(t, srv.URL)
	if got.Counters == nil || len(got.Counters) != 0 {
		t.Errorf("nil registry counters = %v", got.Counters)
	}
}

func TestServeLifecycle(t *testing.T) {
	errs := make(chan error, 1)
	srv := Serve("127.0.0.1:0", Handler(statsOne, nil, nil), errs)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatalf("unexpected error: %v", err)
	default:
	}
}
