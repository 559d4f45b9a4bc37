package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// runtimeSample is the runtime/metrics state at one instant.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	pauses     *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// maxPause is the upper bound of the highest pause bucket that gained a
// count between two samples.
func maxPause(before, after *metrics.Float64Histogram) time.Duration {
	for i := len(after.Counts) - 1; i >= 0; i-- {
		if after.Counts[i] > before.Counts[i] {
			hi := after.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = after.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// phases are the traced roots whose wall time the spans must account for,
// with the end-to-end clock each one is compared against.
var phases = []struct {
	name, root string
	wall       func(*pass) time.Duration
}{
	{"batch", "phase.batch", func(p *pass) time.Duration { return p.batch.wall }},
	{"ingest", "phase.ingest", func(p *pass) time.Duration { return p.ingest.wall }},
	{"mixed", "phase.mixed", func(p *pass) time.Duration { return p.mixed.wall }},
}

// roots are every traced root the per-layer metrics read.
var roots = []string{"phase.batch", "phase.ingest", "phase.mixed", "phase.recover", "loadgen.reader", "replay.ingest", "replay.mixed"}

// tracedRun runs untraced passes for the run's seconds, then as many passes
// traced, then the in-process replays of the two append sequences, and
// reduces the spans to the per-layer metrics: self times as the mean per
// pass, percentiles over every pass's samples. Spans and a per-phase
// self-time summary are written under .bench_build/trace.
func tracedRun(work string, in *inputs, seed int64, seconds int, chk *checker) (map[string]metric, error) {
	plain, err := runPasses(nil, in, work, "plain", seconds, 1, 0, chk)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rt0 := readRuntime()
	traced, err := runPasses(tr, in, work, "traced", 0, 0, len(plain), chk)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if err := replays(tr, in, traced[0], chk); err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	f := map[string][]tree{}
	for _, root := range roots {
		if f[root] = forest(spans, root); len(f[root]) == 0 {
			return nil, fmt.Errorf("trace: no %s span", root)
		}
	}

	m := map[string]metric{}
	summary := fmt.Sprintf("feed sha256 %s, seed %d, %d passes, %d spans\n", in.digest, seed, len(traced), len(spans))
	for _, ph := range phases {
		var wall, un time.Duration
		for _, t := range f[ph.root] {
			w, u, sum := t.accounting()
			chk.check(sum == w, "trace: %s self times sum to %v, wall %v", ph.root, sum, w)
			wall, un = wall+w, un+u
		}
		n := time.Duration(len(f[ph.root]))
		over := meanWall(traced, ph.wall) - meanWall(plain, ph.wall)
		m["trace."+ph.name+".wall_s"] = metric{secs(wall / n), "s"}
		m["trace."+ph.name+".unattributed_s"] = metric{secs(un / n), "s"}
		m["trace."+ph.name+".overhead_s"] = metric{secs(over), "s"}
		summary += fmt.Sprintf("%s(tracing overhead %+.4fs per pass: traced %.4fs, untraced %.4fs)\n",
			fmtTree(f[ph.root][0]), secs(over), secs(meanWall(traced, ph.wall)), secs(meanWall(plain, ph.wall)))
	}
	for _, root := range roots[len(phases):] {
		summary += fmtTree(f[root][0])
	}

	if err := layerMetrics(m, traced, f, rt0, rt1); err != nil {
		return nil, err
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("seed-%d-%s", seed, in.digest))
	if err := writeSpans(stem+".spans.jsonl", spans); err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(m) {
		summary += fmt.Sprintf("%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	if err := os.WriteFile(stem+".summary.txt", []byte(summary), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, summary)
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s.spans.jsonl\n", stem)
	return m, nil
}

// replays runs both in-process replays and checks their posteriors against
// what the traced server served.
func replays(tr *tracer, in *inputs, p *pass, chk *checker) error {
	batches, err := decodeBodies(in.ingest)
	if err != nil {
		return err
	}
	got, err := replayClaims(tr, batches)
	chk.attempt(err)
	if err != nil {
		return err
	}
	chk.check(got == p.ingest.digest, "trace: in-process popaccu replay digest %s differs from the served %s", got, p.ingest.digest)
	if batches, err = decodeBodies(append([]body{in.base}, in.mixed...)); err != nil {
		return err
	}
	got, err = replayTwoLayer(tr, batches)
	chk.attempt(err)
	if err != nil {
		return err
	}
	chk.check(got == p.mixed.digest, "trace: in-process twolayer replay digest %s differs from the served %s", got, p.mixed.digest)
	return nil
}

func meanWall(ps []*pass, wall func(*pass) time.Duration) time.Duration {
	var sum time.Duration
	for _, p := range ps {
		sum += wall(p)
	}
	return sum / time.Duration(len(ps))
}

// selfPerRoot is the mean, over the trees, of the self time of the spans
// named name in each.
func selfPerRoot(ts []tree, name string) time.Duration {
	var sum time.Duration
	for _, t := range ts {
		sum += t.selfByName()[name]
	}
	return sum / time.Duration(len(ts))
}

// pooledMs lists, over every tree, each span named name's duration (or its
// self time) in milliseconds.
func pooledMs(ts []tree, name string, self bool) []float64 {
	var out []float64
	for _, t := range ts {
		for _, s := range t.spans {
			if s.Name != name {
				continue
			}
			d := s.dur()
			if self {
				d = t.self[s.ID]
			}
			out = append(out, ms(d))
		}
	}
	return out
}

// layerMetrics fills in the per-layer metrics from the traced passes.
func layerMetrics(m map[string]metric, ps []*pass, f map[string][]tree, rt0, rt1 runtimeSample) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perPass := func(v func(*pass) float64) float64 {
		sum := 0.0
		for _, p := range ps {
			sum += v(p)
		}
		return sum / float64(len(ps))
	}
	n := float64(len(ps))
	b := ps[0].batch

	batch := f["phase.batch"]
	decode := selfPerRoot(batch, "kfio.decode")
	set("kfio.decode_s", secs(decode), "s")
	set("kfio.records_per_s", float64(b.records)/decode.Seconds(), "1/s")
	for _, name := range []string{"fusion.claims", "fusion.compile", "fusion.fuse", "extract.compile", "twolayer.fuse", "shard.append", "shard.fuse"} {
		set(name+"_s", secs(selfPerRoot(batch, name)), "s")
	}
	set("fusion.graph_mb", float64(b.graphBytes)/(1<<20), "MB")
	set("fusion.rounds", float64(b.popRounds), "count")
	set("twolayer.rounds", float64(b.tlRounds), "count")
	set("shard.rounds", float64(b.shRounds), "count")
	set("shard.max_shard_share", b.maxShardShare, "ratio")

	ri := f["replay.ingest"]
	appends := pooledMs(ri, "fusion.append", false)
	if len(appends) < 20 {
		return fmt.Errorf("replay: %d claim-graph appends, need 20", len(appends))
	}
	set("fusion.stream_add_s", secs(selfPerRoot(ri, "fusion.stream_add")), "s")
	set("fusion.append_ms_first10", mean(appends[:10]), "ms")
	set("fusion.append_ms_last10", mean(appends[len(appends)-10:]), "ms")
	set("fusion.fuse_warm_s", secs(selfPerRoot(ri, "fusion.fuse_warm")), "s")
	set("extract.append_s", secs(selfPerRoot(f["replay.mixed"], "extract.append")), "s")
	set("twolayer.fuse_warm_s", secs(selfPerRoot(f["replay.mixed"], "twolayer.fuse_warm")), "s")

	set("genstore.journal_write_s", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.journalWrite.Load()) / 1e9 }), "s")
	set("genstore.journal_sync_s", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.journalSync.Load()) / 1e9 }), "s")
	set("genstore.syncs", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.syncs.Load()) }), "count")
	set("genstore.journal_bytes", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.journalBytes.Load()) }), "B")
	set("genstore.snapshot_s", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.snapshotTime.Load()) / 1e9 }), "s")
	set("genstore.snapshots", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.snapshots.Load()) }), "count")
	set("genstore.snapshot_bytes", perPass(func(p *pass) float64 { return float64(p.ingest.st.fs.snapshotBytes.Load()) }), "B")
	set("genstore.read_bytes", perPass(func(p *pass) float64 { return float64(p.ingest.recoverST.fs.readBytes.Load()) }), "B")
	set("genstore.read_s", perPass(func(p *pass) float64 { return float64(p.ingest.recoverST.fs.readTime.Load()) / 1e9 }), "s")

	ing := f["phase.ingest"]
	handler := 0.0
	for _, v := range pooledMs(ing, "server.append", false) {
		handler += v
	}
	set("server.append_handler_s", handler/1e3/n, "s")
	set("server.apply_s", secs(selfPerRoot(ing, "server.append")), "s")
	set("http.append_wait_s", secs(selfPerRoot(ing, "http.append")), "s")
	set("server.hydrate_s", secs(selfPerRoot(f["phase.recover"], "server.hydrate")), "s")

	rd := f["loadgen.reader"]
	var late, reads []float64
	for _, p := range ps {
		late = append(late, p.mixed.lateMs...)
		reads = append(reads, p.mixed.readMs...)
	}
	for _, q := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"server.read_handler_ms_p50", pooledMs(rd, "server.read", false), 0.5},
		{"server.read_handler_ms_p99", pooledMs(rd, "server.read", false), 0.99},
		{"http.read_wait_ms_p99", pooledMs(rd, "http.read", true), 0.99},
		{"loadgen.late_ms_p99", late, 0.99},
		{"loadgen.read_ms_p99", reads, 0.99},
	} {
		v, err := percentile(q.samples, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		set(q.name, v, "ms")
	}

	set("runtime.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/n, "MB")
	set("runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles)/n, "count")
	set("runtime.gc_pause_ms_max", ms(maxPause(rt0.pauses, rt1.pauses)), "ms")
	set("runtime.gc_cpu_s", (rt1.gcCPU-rt0.gcCPU)/n, "s")
	return nil
}
