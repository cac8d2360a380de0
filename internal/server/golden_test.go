package server

// The serving-body golden: every example spec through every spec-running
// endpoint, pinned by the sha256 of the response body. It guards the wire
// format of the sync, shard, job and cluster surfaces against any change
// in how they execute a spec or assemble a response.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/jobs"
)

const servingGoldenFile = "testdata/serving_golden.txt"

// clusterNodes matches the per-worker shard counts in a cluster run body.
// Their keys are the workers' listener URLs, which change every run.
var clusterNodes = regexp.MustCompile(`"nodes": \{[^{}]*\}`)

// TestServingBodiesGolden is not parallel: job reports carry a process-wide
// engine metrics delta, exact only while nothing else runs the engine.
func TestServingBodiesGolden(t *testing.T) {
	specs, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs: %v", err)
	}

	w1 := httptest.NewServer(New(quietConfig()))
	defer w1.Close()
	w2 := httptest.NewServer(New(quietConfig()))
	defer w2.Close()
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Cluster = cluster.Config{
		Workers:       []string{w1.URL, w2.URL},
		ProbeInterval: -1,
		BaseBackoff:   time.Millisecond,
	}
	coord := New(cfg)
	defer coord.Close()
	ts := httptest.NewServer(coord)
	defer ts.Close()

	var got strings.Builder
	for _, path := range specs {
		spec, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		pin := func(endpoint string, body []byte) {
			sum := sha256.Sum256(body)
			fmt.Fprintf(&got, "%s %s %s\n", name, endpoint, hex.EncodeToString(sum[:]))
		}

		pin("scenarios/run", goldenPost(t, ts.URL+"/v1/scenarios/run", spec))
		pin("cluster/shard", goldenPost(t, ts.URL+"/v1/cluster/shard", spec))

		var st jobs.Status
		decodeBody(t, postRaw(t, ts.URL+"/v1/jobs", spec), &st)
		if final := awaitJob(t, ts.URL, st.ID); final.State != jobs.StateComplete {
			t.Fatalf("%s: job ended %+v", name, final)
		}
		pin("jobs/result", goldenGet(t, ts.URL+"/v1/jobs/"+st.ID+"/result"))
		pin("jobs/report", goldenGet(t, ts.URL+"/v1/jobs/"+st.ID+"/report"))

		run := goldenPost(t, ts.URL+"/v1/cluster/run?report=1", spec)
		pin("cluster/run?report=1", clusterNodes.ReplaceAll(run, []byte(`"nodes": {}`)))
	}

	want, err := os.ReadFile(servingGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("serving bodies differ from %s; got:\n%s", servingGoldenFile, got.String())
	}
}

func postRaw(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func goldenPost(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	return goldenBody(t, url, postRaw(t, url, body))
}

func goldenGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return goldenBody(t, url, resp)
}

func goldenBody(t *testing.T, url string, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", url, resp.StatusCode, body)
	}
	return body
}
