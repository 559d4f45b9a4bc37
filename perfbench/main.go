// Command perfbench is kfusion's end-to-end benchmark. A run feeds the
// workload's corpus, in an arrival order set by --seed, through three
// phases against the program's public functions and its HTTP API:
//
//   - batch: the kfuse path: decode the feed, then POPACCU, two-layer and
//     K=4 item-sharded POPACCU fusion;
//   - ingest: kfserved popaccu on disk fed the whole feed by one
//     closed-loop connection, then recovered from a crash image;
//   - serve-mixed: kfserved twolayer on disk, a closed-loop appender beside
//     an open-loop reader.
//
// Every output is checked. With --trace 0 the last line of standard output
// is the end-to-end metrics; with --trace 1 the run repeats its passes with
// spans recorded around every call into a layer and prints the per-layer
// metrics instead, writing the spans under .bench_build/trace. README.md
// describes the workloads, metrics and checks.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload large --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		if mode, ok := map[string]func([]string) error{"gen": runGen, "prep": runPrep}[os.Args[1]]; ok {
			if err := mode(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	workload := flag.String("workload", "large", "large | bench: the corpus scale")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "keep starting passes until this many seconds of passes have run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

// checker counts attempted operations and output checks, and the ones
// that failed. Safe for the reader and appender goroutines together.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (c *checker) attempt(err error) {
	c.check(err == nil, "%v", err)
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, seconds int, trace bool) int {
	if _, err := parseScale(workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := measure(work, workload, seed, seconds, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func measure(work, scale string, seed int64, seconds int, trace bool) (*result, error) {
	dir, err := corpus(scale)
	if err != nil {
		return nil, err
	}
	prep := filepath.Join(work, "inputs")
	if err := os.MkdirAll(prep, 0o755); err != nil {
		return nil, err
	}
	if err := prepare(dir, seed, prep); err != nil {
		return nil, err
	}
	in, err := loadInputs(dir, prep)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	inputsMB, err := procStatusMB("VmRSS")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: scale %s seed %d: %d extractions, %d feed bytes, feed sha256 %s, %d append batches of %d; inputs resident %.1f MB\n",
		scale, seed, in.n, len(in.feed), in.digest, len(in.ingest), in.batchSize, inputsMB)

	chk := &checker{}
	var metrics map[string]metric
	if trace {
		metrics, err = tracedRun(work, in, seed, seconds, chk)
	} else {
		var passes []*pass
		if passes, err = runPasses(nil, in, work, "pass", seconds, minPasses, 0, chk); err == nil {
			used := calmPasses(passes)
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d passes used\n", len(used), len(passes))
			metrics, err = endToEnd(used, in)
		}
	}
	if err != nil {
		return nil, err
	}
	peak, err := procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: peak resident %.1f MB, of which %.1f MB the inputs held before the first pass\n", peak, inputsMB)
	if !trace {
		metrics["peak_rss_mb"] = metric{peak - inputsMB, "MB"}
	}
	for _, f := range chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, nil
}

// pass is one run of the three phases over the same inputs.
type pass struct {
	batch         *batchOut
	ingest        *ingestOut
	mixed         *mixedOut
	aucPop, aucTL float64
	servedAUC     float64
	steal         float64 // share of CPU the hypervisor stole during the pass
}

// calmSteal is the most CPU the hypervisor may steal during a pass for the
// pass to count as a measurement of the program rather than of the host:
// on the shared reference VM steal stayed under 5% between bursts of
// 10-40% lasting a minute or more, and every timing in a pass under such a
// burst moved with it.
const calmSteal = 0.08

// minPasses is the fewest passes an untraced run makes. A pass on large
// outlasts --seconds, so with one pass a run would see a single stretch of
// host time and 108 append latencies; with two it pools 216 and the
// calm-pass filter has a choice. The traced run makes one, to stay within
// its time limit.
const minPasses = 2

// runPasses runs count passes, or with count 0 keeps starting passes until
// seconds have gone by and at least least passes have run. While no pass
// has been calm it keeps going for up to twice as long, never starting a
// pass that would run past that.
func runPasses(tr *tracer, in *inputs, work, prefix string, seconds, least, count int, chk *checker) ([]*pass, error) {
	var out []*pass
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	calm := false
	var last time.Duration
	for i := 0; ; i++ {
		if count > 0 && i == count {
			break
		}
		if el := time.Since(start); count == 0 && i >= max(least, 1) && el >= budget && (calm || el+last > 2*budget) {
			break
		}
		t0, st0 := time.Now(), readSteal()
		reps := 1
		if i == 0 {
			reps = setupReps
		}
		p, err := runPass(tr, in, filepath.Join(work, fmt.Sprintf("%s-%d", prefix, i)), reps, chk)
		if err != nil {
			return nil, err
		}
		last, p.steal = time.Since(t0), stealShare(st0, readSteal())
		calm = calm || p.steal <= calmSteal
		fmt.Fprintf(os.Stderr, "perfbench: %s %d: batch %.3fs, ingest %.3fs, serve-mixed %.3fs, steal %.3f\n",
			prefix, i, p.batch.wall.Seconds(), p.ingest.wall.Seconds(), p.mixed.wall.Seconds(), p.steal)
		out = append(out, p)
	}
	return out, nil
}

// calmPasses keeps the passes the host left alone (steal at most
// calmSteal), or all of them when there are none.
func calmPasses(ps []*pass) []*pass {
	var out []*pass
	for _, p := range ps {
		if p.steal <= calmSteal {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return ps
	}
	return out
}

func runPass(tr *tracer, in *inputs, dir string, reps int, chk *checker) (*pass, error) {
	p := &pass{}
	runtime.GC()
	b, err := runBatch(tr, in.feed, in.batchSize)
	chk.attempt(err)
	if err != nil {
		return nil, err
	}
	checkBatch(b, chk)
	p.aucPop, p.aucTL = in.gold.aucResult(b.pop), in.gold.aucResult(b.tl)
	b.pop, b.tl, b.sh = nil, nil, nil
	p.batch = b

	runtime.GC()
	ing, err := runIngest(tr, in, filepath.Join(dir, "ingest"), reps, chk)
	if err != nil {
		return nil, err
	}
	p.servedAUC = in.gold.aucRows(ing.served)
	ing.served = nil
	p.ingest = ing

	runtime.GC()
	mix, err := runMixed(tr, in, filepath.Join(dir, "mixed"), reps, chk)
	if err != nil {
		return nil, err
	}
	p.mixed = mix
	return p, os.RemoveAll(dir)
}

// endToEnd reduces untraced passes to the end-to-end metrics: latency
// percentiles over every sample of every pass, other figures as the median
// over passes (set-up and recovery over every repetition).
func endToEnd(passes []*pass, in *inputs) (map[string]metric, error) {
	var setupIngest, setupMixed, recover, claimsPerS, extPerS, disk, aucPop, aucTL, served []float64
	var appendMs, readMs, mixAppendMs []float64
	for _, p := range passes {
		for _, d := range p.ingest.setup {
			setupIngest = append(setupIngest, d.Seconds())
		}
		for _, d := range p.mixed.setup {
			setupMixed = append(setupMixed, d.Seconds())
		}
		for _, d := range p.ingest.recover {
			recover = append(recover, d.Seconds())
		}
		claimsPerS = append(claimsPerS, float64(p.batch.claims)/p.batch.wall.Seconds())
		extPerS = append(extPerS, float64(in.n)/p.ingest.wall.Seconds())
		disk = append(disk, float64(p.ingest.diskBytes)/float64(len(in.feed)))
		aucPop, aucTL, served = append(aucPop, p.aucPop), append(aucTL, p.aucTL), append(served, p.servedAUC)
		appendMs = append(appendMs, p.ingest.appendMs...)
		readMs = append(readMs, p.mixed.readMs...)
		mixAppendMs = append(mixAppendMs, p.mixed.appendMs...)
	}
	m := map[string]metric{
		"setup_s":                  {median(setupIngest) + median(setupMixed), "s"},
		"batch_claims_per_s":       {median(claimsPerS), "1/s"},
		"auc_pr_popaccu":           {median(aucPop), "ratio"},
		"auc_pr_twolayer":          {median(aucTL), "ratio"},
		"ingest_ext_per_s":         {median(extPerS), "1/s"},
		"recover_s":                {median(recover), "s"},
		"disk_bytes_per_feed_byte": {median(disk), "ratio"},
		"served_auc_pr":            {median(served), "ratio"},
	}
	for _, q := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"append_ms_p50", appendMs, 0.5},
		{"append_ms_p90", appendMs, 0.9},
		{"read_ms_p50", readMs, 0.5},
		{"mixed_append_ms_p50", mixAppendMs, 0.5},
	} {
		v, err := percentile(q.samples, q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = metric{v, "ms"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: samples: %d ingest appends, %d serve-mixed appends, %d reads\n",
		len(appendMs), len(mixAppendMs), len(readMs))
	return m, nil
}

// procStatusMB reads one memory field of /proc/self/status (VmRSS, the
// resident set now, or VmHWM, its peak), in MiB.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// cpuTicks is the machine-wide CPU time stolen by the hypervisor and the
// total, from the first line of /proc/stat. The total leaves out guest and
// guest_nice, which the kernel already counts in user and nice.
type cpuTicks struct{ steal, total float64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

func parseCPULine(line string) cpuTicks {
	var t cpuTicks
	// user nice system idle iowait irq softirq steal guest guest_nice
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// between two readings. It is taken over all CPU time, idle included,
// rather than over busy time: on the reference VM the host records steal
// on idle vCPUs too, so steal over busy time read 0.5-0.67 with the VM idle
// and 0.005-0.09 with one or two CPUs spinning, which would make the figure
// follow the program's own CPU use, while steal over all time read
// 0.005-0.045 at every load.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
