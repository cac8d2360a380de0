package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/scenario"
	"hitl/internal/server"
)

// sut is one built system under test: the in-process servers behind
// loopback httptest listeners, and the client the workload drives them
// with. batch-corpus has no servers; its system is the loaded corpus.
type sut struct {
	base    string // URL the workload talks to (the coordinator for serve-cluster)
	workers []string
	client  *http.Client
	apps    []*server.Server
	lns     []*httptest.Server
}

// quietLogger formats access logs as a deployed server would and drops them.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// loadCorpus reads and normalizes every example spec in dir, sorted by
// file name. It returns the parsed specs (the generator's templates) and
// their names.
func loadCorpus(dir string) ([]scenario.Spec, []string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no example specs in %s", dir)
	}
	var specs []scenario.Spec
	var names []string
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, nil, err
		}
		sp, err := scenario.ParseSpec(fh)
		fh.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		if _, err := scenario.Normalize(sp); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		specs = append(specs, sp)
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".json"))
	}
	return specs, names, nil
}

// newServer starts one in-process server behind a loopback listener.
func (s *sut) newServer(cfg server.Config) *httptest.Server {
	cfg.Logger = quietLogger()
	app := server.New(cfg)
	ln := httptest.NewServer(app)
	s.apps = append(s.apps, app)
	s.lns = append(s.lns, ln)
	return ln
}

// buildSUT builds the workload's system, from nothing to the first
// answered /v1/healthz of every server. storeDir roots the result store
// of serve-jobs and serve-cluster.
func buildSUT(workload, storeDir string) (*sut, error) {
	s := &sut{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	switch workload {
	case "batch-corpus":
		// The system is the loaded, validated corpus; the generator
		// draws every pass from the same files.
		_, _, err := loadCorpus(corpusDir)
		return s, err
	case "serve-sync":
		s.base = s.newServer(server.Config{}).URL
	case "serve-jobs":
		s.base = s.newServer(server.Config{StoreDir: storeDir}).URL
	case "serve-cluster":
		for i := 0; i < 2; i++ {
			s.workers = append(s.workers, s.newServer(server.Config{}).URL)
		}
		s.base = s.newServer(server.Config{
			StoreDir: storeDir,
			Cluster:  cluster.Config{Workers: s.workers},
		}).URL
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	for _, ln := range s.lns {
		if err := s.healthz(ln.URL); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *sut) healthz(base string) error {
	resp, err := s.client.Get(base + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s answered %d", base, resp.StatusCode)
	}
	return nil
}

// close stops the coordinator's prober and every listener, coordinator
// first, and waits for their in-flight requests.
func (s *sut) close() {
	for i := len(s.apps) - 1; i >= 0; i-- {
		s.apps[i].Close()
		s.lns[i].Close()
	}
	s.client.CloseIdleConnections()
}

// timedBuild builds the workload's system over storeDir and returns it
// with its build time in seconds.
func timedBuild(workload, storeDir string) (*sut, float64, error) {
	t0 := time.Now()
	s, err := buildSUT(workload, storeDir)
	return s, time.Since(t0).Seconds(), err
}
