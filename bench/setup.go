package main

// Set-up: start tasmd on empty directories, ingest the fixture through
// POST /v1/docs, restart gracefully on the populated directories and
// check that every acknowledged document is still there. The whole
// sequence is what setup_s times.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// topology is a running deployment: the leaf daemons with their corpus
// directories, the router in front of them if there is more than one
// leaf, and the daemon requests go to.
type topology struct {
	leaves []*daemon
	dirs   []string
	router *daemon
	front  *daemon
}

// all returns every daemon of the topology.
func (t *topology) all() []*daemon {
	if t.router == nil {
		return t.leaves
	}
	return append(append([]*daemon{}, t.leaves...), t.router)
}

// stop shuts every daemon down gracefully, front first.
func (t *topology) stop() error {
	var first error
	ds := t.all()
	for i := len(ds) - 1; i >= 0; i-- {
		if err := ds[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sum adds up a per-process reading over every daemon.
func (t *topology) sum(read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, d := range t.all() {
		v, err := read(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// cpu returns the CPU seconds consumed so far by all daemons.
func (t *topology) cpu() (float64, error) { return t.sum(procCPU) }

// peakRSS returns the sum of the daemons' peak resident sets in MB.
func (t *topology) peakRSS() (float64, error) { return t.sum(procPeakRSS) }

// setupStats is what one set-up measured.
type setupStats struct {
	seconds   float64   // the whole sequence, fixture generation included
	ingestMs  []float64 // per-document POST /v1/docs latency
	ingestMBs float64   // XML bytes ingested per second of ingest
	restartMs float64   // SIGTERM → healthy again on the populated directories
	docs      []fixtureDoc
}

// ingest POSTs one document and reports whether tasmd acknowledged it.
func ingest(client *http.Client, url, name, xml string) error {
	body, err := json.Marshal(map[string]string{"name": name, "xml": xml})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/v1/docs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // only quoted in the error below
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("bench: ingesting %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// remove DELETEs one document.
func remove(client *http.Client, url, name string) error {
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/docs/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: removing %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// setUp runs the whole set-up sequence once and leaves the topology
// running. Each leaf receives a contiguous run of the fixture's documents,
// so the router's merged tie-break order is the fixture's order.
func setUp(e *env, w *workload, seed int64) (*topology, *setupStats, error) {
	start := time.Now()
	st := &setupStats{}
	var err error
	if st.docs, err = w.docs(seed); err != nil {
		return nil, nil, err
	}
	topo := &topology{}
	fail := func(err error) (*topology, *setupStats, error) {
		for _, d := range topo.all() {
			d.kill()
		}
		return nil, nil, err
	}
	for i := 0; i < w.leaves; i++ {
		dir, err := os.MkdirTemp(e.tmp, fmt.Sprintf("leaf%d-", i))
		if err != nil {
			return fail(err)
		}
		d, err := e.start(fmt.Sprintf("leaf%d", i), "-dir", dir)
		if err != nil {
			return fail(err)
		}
		topo.leaves = append(topo.leaves, d)
		topo.dirs = append(topo.dirs, dir)
	}

	client := newHTTPClient(1)
	acked := make([]int, w.leaves)
	xmlBytes := 0
	ingestStart := time.Now()
	for i, doc := range st.docs {
		leaf := i * w.leaves / len(st.docs)
		t0 := time.Now()
		if err := ingest(client, topo.leaves[leaf].url, doc.name, doc.xml); err != nil {
			return fail(err)
		}
		st.ingestMs = append(st.ingestMs, float64(time.Since(t0))/float64(time.Millisecond))
		acked[leaf]++
		xmlBytes += len(doc.xml)
	}
	st.ingestMBs = float64(xmlBytes) / 1e6 / time.Since(ingestStart).Seconds()
	sort.Float64s(st.ingestMs)
	client.CloseIdleConnections()

	// Graceful restart on the populated directories: what the restarted
	// daemons serve is only what reached the disk.
	restart := time.Now()
	for _, d := range topo.leaves {
		if err := d.stop(); err != nil {
			return fail(err)
		}
	}
	for i := range topo.leaves {
		d, err := e.start(fmt.Sprintf("leaf%d", i), "-dir", topo.dirs[i])
		if err != nil {
			return fail(err)
		}
		topo.leaves[i] = d
	}
	st.restartMs = float64(time.Since(restart)) / float64(time.Millisecond)
	for i, d := range topo.leaves {
		h, err := d.health()
		if err != nil {
			return fail(err)
		}
		if h.Docs != acked[i] {
			return fail(fmt.Errorf("bench: %s serves %d documents after restart, %d were acknowledged", d.name, h.Docs, acked[i]))
		}
	}
	topo.front = topo.leaves[0]
	if w.leaves > 1 {
		urls := make([]string, len(topo.leaves))
		for i, d := range topo.leaves {
			urls[i] = d.url
		}
		if topo.router, err = e.start("router", "-shards", strings.Join(urls, ",")); err != nil {
			return fail(err)
		}
		topo.front = topo.router
	}
	st.seconds = time.Since(start).Seconds()
	return topo, st, nil
}
