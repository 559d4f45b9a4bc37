package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/genstore"
	"kfusion/internal/kb"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // rank 90, ten beyond
		{99, 0.9, 0, false},  // rank 90, nine beyond
		{108, 0.9, 98, true}, // the ingest phase's 108 appends
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{21, 0.5, 11, true},
		{20, 0.5, 0, true}, // rank 10, ten beyond
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g) err = %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && c.want != 0 && got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
}

func TestCalmPassesDropsStolenPasses(t *testing.T) {
	ps := []*pass{{steal: 0.2}, {steal: 0.01}, {steal: calmSteal}, {steal: 0.3}}
	if got := calmPasses(ps); len(got) != 2 || got[0] != ps[1] || got[1] != ps[2] {
		t.Errorf("calmPasses kept %d passes, want the two at or below %g", len(got), calmSteal)
	}
	stolen := []*pass{{steal: 0.2}, {steal: 0.3}}
	if got := calmPasses(stolen); len(got) != 2 {
		t.Errorf("calmPasses of all-stolen passes kept %d, want all 2", len(got))
	}
}

func TestStealShareLeavesOutGuestTime(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice:
	// between the two readings 100 ticks went by, 10 of them stolen; the
	// 20 guest ticks are already inside user.
	a := parseCPULine("cpu  100 0 50 1000 10 0 0 5 40 0")
	b := parseCPULine("cpu  120 0 60 1050 20 0 0 15 60 0")
	if got := stealShare(a, b); got != 0.1 {
		t.Errorf("stealShare = %g, want 10 stolen of 100 ticks = 0.1", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("stealShare over no time = %g, want 0", got)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // outlives root
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}

	// forest clips d to the root, so the root and d then account for 100.
	ts := forest(spans, "root")
	if len(ts) != 1 || len(ts[0].spans) != 5 {
		t.Fatalf("forest: %d trees", len(ts))
	}
	if got := ts[0].self[5]; got != 10 {
		t.Errorf("clipped d self = %v, want 10", got)
	}
}

func TestTreeAccountsForWallTime(t *testing.T) {
	// Sequential siblings with nested children: self times sum to the wall.
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "http.append", Start: 100, End: 400},
		{ID: 3, Parent: 2, Name: "server.append", Start: 120, End: 410}, // ends after its client
		{ID: 4, Parent: 3, Name: "genstore.journal_sync", Start: 200, End: 250},
		{ID: 5, Parent: 1, Name: "http.append", Start: 500, End: 900},
		{ID: 6, Parent: 5, Name: "server.append", Start: 510, End: 880},
		{ID: 7, Name: "phase", Start: 2000, End: 2100}, // a second pass
		{ID: 8, Name: "other", Start: 0, End: 5000},
	}
	ts := forest(spans, "phase")
	if len(ts) != 2 {
		t.Fatalf("forest found %d trees, want 2", len(ts))
	}
	wall, un, sum := ts[0].accounting()
	if wall != 1000 || sum != wall || un != 300 {
		t.Errorf("accounting = wall %v unattributed %v sum %v, want 1000/300/1000", wall, un, sum)
	}
	byName := ts[0].selfByName()
	if byName["server.append"] != 230+370 || byName["http.append"] != 20+30 || byName["genstore.journal_sync"] != 50 {
		t.Errorf("self by name = %v", byName)
	}
	if got := selfPerRoot(ts, "phase"); got != (300+100)/2 {
		t.Errorf("selfPerRoot(phase) = %v, want 200", got)
	}
}

func TestCountingFSAccounting(t *testing.T) {
	mem := faultfs.NewMem()
	var st fsStats
	var parent atomic.Int64
	tr := newTracer()
	fs := &countingFS{inner: mem, st: &st, tr: tr, parent: parent.Load}

	apply := func(s *genstore.State, batch []extract.Extraction) error { return nil }
	store, state, err := genstore.OpenFS(fs, apply)
	if err != nil {
		t.Fatal(err)
	}
	batch := []extract.Extraction{{
		Triple:    kb.Triple{Subject: "/m/a", Predicate: "p", Object: kb.StringObject("v")},
		Extractor: "x", URL: "http://a/1", Site: "a", Confidence: 0.5,
	}}
	const appends = 5
	for i := 0; i < appends; i++ {
		if err := store.Append(state, batch); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := mem.Size("journal.kfj")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.journalBytes.Load(); got != int64(journal) {
		t.Errorf("journal bytes = %d, file holds %d", got, journal)
	}
	syncsBefore := st.syncs.Load()
	if syncsBefore < appends {
		t.Errorf("%d syncs after %d appends", syncsBefore, appends)
	}

	if err := store.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	if st.snapshots.Load() != 1 {
		t.Errorf("snapshots = %d, want 1", st.snapshots.Load())
	}
	names, _ := mem.List()
	var snapBytes int
	for _, n := range names {
		if !isJournal(n) {
			size, _ := mem.Size(n)
			snapBytes += size
		}
	}
	if snapBytes == 0 || st.snapshotBytes.Load() != int64(snapBytes) {
		t.Errorf("snapshot bytes = %d, files hold %d", st.snapshotBytes.Load(), snapBytes)
	}
	// A snapshot syncs its file and the directory; rotating the journal
	// syncs the rewritten journal and the directory again.
	if got := st.syncs.Load() - syncsBefore; got < 2 {
		t.Errorf("snapshot added %d syncs, want at least 2", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening reads every byte the store holds.
	before := st.readBytes.Load()
	store, _, err = genstore.OpenFS(fs, apply)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	var total int
	names, _ = mem.List()
	for _, n := range names {
		size, _ := mem.Size(n)
		total += size
	}
	if got := st.readBytes.Load() - before; got < int64(total) {
		t.Errorf("reopen read %d bytes, store holds %d", got, total)
	}
	for _, s := range tr.snapshot() {
		if s.Parent != 0 {
			t.Fatalf("span %s has parent %d outside any server span", s.Name, s.Parent)
		}
	}
}

// An open-loop reader must time each read from when it was due: one
// stalled response charges the reads queued behind it, and the generator's
// lateness shows the schedule slipping.
func TestReadLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(map[string]int{"generation": 1})
	}))
	defer srv.Close()

	c := newClient(srv.URL, nil)
	defer c.close()
	var m mixedOut
	chk := &checker{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.readLoop(c, []string{"/x"}, stop, chk); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if chk.failed != 0 || len(m.readMs) < 30 {
		t.Fatalf("%d reads, %d failed", len(m.readMs), chk.failed)
	}
	if m.readMs[19] < ms(stall) {
		t.Errorf("stalled read took %.2fms from due time, want >= %v", m.readMs[19], stall)
	}
	// The next read was due 1ms after the stalled one but could only be
	// sent once it returned: it is late by about the stall, and its latency
	// from the due time includes that lateness.
	if m.lateMs[20] < ms(stall)-2 || m.readMs[20] < m.lateMs[20] {
		t.Errorf("read after the stall: late %.2fms, latency %.2fms; want both >= ~%v", m.lateMs[20], m.readMs[20], stall)
	}
}

func TestReadLoopFlagsGenerationGoingBackwards(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gen := 5
		if n.Add(1) == 3 {
			gen = 4
		}
		json.NewEncoder(w).Encode(map[string]int{"generation": gen})
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	var m mixedOut
	chk := &checker{}
	stop := make(chan struct{})
	done := make(chan error)
	go func() { done <- m.readLoop(c, []string{"/x"}, stop, chk) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if chk.failed != 1 {
		t.Errorf("failed = %d, want 1 (the one read that went back a generation)", chk.failed)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names BENCHMARK.json declares are valid, unique, and exactly the
// ones the two modes print.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q invalid or repeated", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "x%"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}

	if testing.Short() {
		t.Skip("skipping the traced and untraced runs in -short mode")
	}
	// One untraced and one traced run on a small corpus print exactly the
	// declared names with the declared units, and every check passes.
	dir := t.TempDir()
	if err := runGen([]string{"-scale", "bench", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	prep := t.TempDir()
	if err := writePrepared(dir, 7, prep); err != nil {
		t.Fatal(err)
	}
	in, err := loadInputs(dir, prep)
	if err != nil {
		t.Fatal(err)
	}
	mixedN := in.base.n
	for _, b := range in.mixed {
		mixedN += b.n
	}
	if len(in.ingest) != appendBatches || mixedN != in.n || len(in.items) == 0 {
		t.Fatalf("prepared inputs: %d ingest bodies of %d extractions, serve-mixed sends %d, %d items",
			len(in.ingest), in.n, mixedN, len(in.items))
	}
	wd, _ := os.Getwd()
	if err := os.Chdir(t.TempDir()); err != nil { // trace output lands here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	chk := &checker{}
	passes, err := runPasses(nil, in, t.TempDir(), "pass", 0, 0, 2, chk)
	if err != nil {
		t.Fatal(err)
	}
	e2e, err := endToEnd(passes, in)
	if err != nil {
		t.Fatal(err)
	}
	e2e["peak_rss_mb"] = metric{1, "MB"}
	// Ten seconds of passes pool the thousand reads the p99s need.
	layers, err := tracedRun(t.TempDir(), in, 7, 10, chk)
	if err != nil {
		t.Fatal(err)
	}
	if chk.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", chk.failed, chk.attempted, chk.failures)
	}
	for _, c := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{e2e, bench.EndToEnd}, {layers, bench.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if g, ok := c.got[w.Name]; !ok || g.Unit != w.Unit {
				t.Errorf("metric %s: printed %+v, declared unit %s", w.Name, g, w.Unit)
			}
		}
	}
}
