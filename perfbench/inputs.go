package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"kfusion/internal/eval"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

const (
	feedFile   = "feed.jsonl"
	goldFile   = "gold.jsonl"
	bodiesFile = "bodies.bin"
	itemsFile  = "items.txt"
	layoutFile = "layout.json"
	// appendBatches is how many append batches the feed is cut into: on
	// the large feed ≈2000 extractions each, and enough samples that p90
	// has at least ten beyond it.
	appendBatches = 108
)

// body is one pre-encoded POST /v1/append request.
type body struct {
	json []byte
	n    int
}

// inputs is everything a pass needs, prepared before any timing starts.
type inputs struct {
	feed      []byte // the feed JSONL the batch phase decodes
	digest    string // sha256 of feed, so runs can prove identical inputs
	n         int    // extractions in the feed
	batchSize int
	ingest    []body   // the whole feed, in batchSize batches
	base      body     // serve-mixed base load: the first half
	mixed     []body   // serve-mixed appends: the second half
	items     []string // read paths over the base's items, seeded order
	gold      goldSet
}

// corpus returns the directory holding the workload's generated corpus,
// generating it in a child process on first use. The cache is keyed by
// the benchmark binary's hash, so any change to the program or to the
// benchmark regenerates it.
func corpus(scale string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(".bench_build", "corpus", scale+"-"+hex.EncodeToString(sum[:6]))
	if _, err := os.Stat(filepath.Join(dir, goldFile)); err == nil {
		return dir, nil
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := child(self, "gen", "-scale", scale, "-out", tmp); err != nil {
		return "", fmt.Errorf("generate corpus: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, serr := os.Stat(filepath.Join(dir, goldFile)); serr != nil {
			return "", err
		}
	}
	return dir, nil
}

// prepare writes the run's inputs for seed into out, in a child process,
// so the measuring process never holds the decoded corpus: it only reads
// back the bytes it sends.
func prepare(corpusDir string, seed int64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := child(self, "prep", "-corpus", corpusDir, "-seed", strconv.FormatInt(seed, 10), "-out", out); err != nil {
		return fmt.Errorf("prepare inputs: %w", err)
	}
	return nil
}

// child runs the benchmark binary in one of its child modes and waits for
// it to end.
func child(self string, args ...string) error {
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// layout describes the bodies file: the byte length and extraction count
// of each append body, in the order ingest, base, mixed.
type layout struct {
	BatchSize int
	Ingest    []bodyLen
	Base      bodyLen
	Mixed     []bodyLen
}

type bodyLen struct{ Bytes, N int }

// writePrepared is the prep child's work: it decodes the corpus, puts it
// in the seed's arrival order and writes the feed, the append bodies and
// the read paths to out.
func writePrepared(corpusDir string, seed int64, out string) error {
	raw, err := os.ReadFile(filepath.Join(corpusDir, feedFile))
	if err != nil {
		return err
	}
	xs, err := kfio.ReadExtractions(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("decode corpus: %w", err)
	}
	xs = shuffleByPage(xs, seed)
	if err := writeFile(filepath.Join(out, feedFile), func(w *bufio.Writer) error {
		return kfio.WriteExtractions(w, xs)
	}); err != nil {
		return err
	}
	lay := layout{BatchSize: (len(xs) + appendBatches - 1) / appendBatches}
	half := len(xs) / 2
	if err := writeFile(filepath.Join(out, bodiesFile), func(w *bufio.Writer) error {
		var err error
		if lay.Ingest, err = encodeBatches(w, xs, lay.BatchSize); err != nil {
			return err
		}
		base, err := encodeBatches(w, xs[:half], half)
		if err != nil {
			return err
		}
		lay.Base = base[0]
		lay.Mixed, err = encodeBatches(w, xs[half:], lay.BatchSize)
		return err
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(out, itemsFile), func(w *bufio.Writer) error {
		for _, p := range itemPaths(xs[:half], seed) {
			if _, err := fmt.Fprintln(w, p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	data, err := json.Marshal(&lay)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, layoutFile), data, 0o644)
}

// encodeBatches writes xs as append bodies of size extractions each and
// returns their lengths.
func encodeBatches(w io.Writer, xs []extract.Extraction, size int) ([]bodyLen, error) {
	var out []bodyLen
	for lo := 0; lo < len(xs); lo += size {
		hi := min(lo+size, len(xs))
		req := httpapi.AppendRequest{Extractions: make([]httpapi.Extraction, 0, hi-lo)}
		for _, x := range xs[lo:hi] {
			req.Extractions = append(req.Extractions, httpapi.FromExtraction(x))
		}
		data, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(data); err != nil {
			return nil, err
		}
		out = append(out, bodyLen{Bytes: len(data), N: hi - lo})
	}
	return out, nil
}

// loadInputs reads the prepared inputs back as the bytes a pass sends,
// and the gold labels.
func loadInputs(corpusDir, prepDir string) (*inputs, error) {
	var lay layout
	data, err := os.ReadFile(filepath.Join(prepDir, layoutFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &lay); err != nil {
		return nil, fmt.Errorf("%s: %w", layoutFile, err)
	}
	in := &inputs{batchSize: lay.BatchSize}
	if in.feed, err = os.ReadFile(filepath.Join(prepDir, feedFile)); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(in.feed)
	in.digest = hex.EncodeToString(sum[:8])

	all, err := os.ReadFile(filepath.Join(prepDir, bodiesFile))
	if err != nil {
		return nil, err
	}
	cut := func(l bodyLen) body {
		b := body{json: all[:l.Bytes:l.Bytes], n: l.N}
		all = all[l.Bytes:]
		return b
	}
	total := 0
	for _, l := range append(append([]bodyLen{lay.Base}, lay.Ingest...), lay.Mixed...) {
		total += l.Bytes
	}
	if total != len(all) {
		return nil, fmt.Errorf("%s holds %d bytes, %s lists %d", bodiesFile, len(all), layoutFile, total)
	}
	for _, l := range lay.Ingest {
		in.ingest = append(in.ingest, cut(l))
		in.n += l.N
	}
	in.base = cut(lay.Base)
	for _, l := range lay.Mixed {
		in.mixed = append(in.mixed, cut(l))
	}

	items, err := os.ReadFile(filepath.Join(prepDir, itemsFile))
	if err != nil {
		return nil, err
	}
	in.items = strings.Fields(string(items))
	in.gold, err = loadGold(filepath.Join(corpusDir, goldFile))
	return in, err
}

// shuffleByPage is the seeded arrival order of the corpus: extractions of
// one page stay together and in order, and the pages arrive in a seeded
// random order, so every seed feeds the same corpus in different batches.
func shuffleByPage(xs []extract.Extraction, seed int64) []extract.Extraction {
	var pages [][]extract.Extraction
	at := map[string]int{}
	for _, x := range xs {
		i, ok := at[x.URL]
		if !ok {
			i = len(pages)
			at[x.URL] = i
			pages = append(pages, nil)
		}
		pages[i] = append(pages[i], x)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	out := make([]extract.Extraction, 0, len(xs))
	for _, p := range pages {
		out = append(out, p...)
	}
	return out
}

// itemPaths lists the distinct data items of xs as /v1/items paths, in a
// seeded random order.
func itemPaths(xs []extract.Extraction, seed int64) []string {
	seen := map[kb.DataItem]bool{}
	var out []string
	for _, x := range xs {
		it := x.Triple.Item()
		if !seen[it] {
			seen[it] = true
			out = append(out, httpapi.ItemPath(string(it.Subject), string(it.Predicate)))
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// goldSet holds the gold labels compactly: a 64-bit hash of the triple's
// wire form to its label.
type goldSet map[uint64]bool

func tripleKey(s, p, o string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s + "\x00" + p + "\x00" + o))
	return h.Sum64()
}

func loadGold(path string) (goldSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := goldSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec kfio.GoldRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("gold: %w", err)
		}
		g[tripleKey(rec.Subject, rec.Predicate, rec.Object)] = rec.Label
	}
	return g, sc.Err()
}

// aucRows is the AUC-PR of predicted, gold-labeled rows.
func (g goldSet) aucRows(rows []httpapi.FusedTriple) float64 {
	var preds []eval.Prediction
	for _, r := range rows {
		if !r.Predicted {
			continue
		}
		if label, ok := g[tripleKey(r.Subject, r.Predicate, r.Object)]; ok {
			preds = append(preds, eval.Prediction{Prob: r.Probability, Label: label})
		}
	}
	return eval.AUCPR(preds)
}

func (g goldSet) aucResult(res *fusion.Result) float64 {
	rows := make([]httpapi.FusedTriple, len(res.Triples))
	for i, t := range res.Triples {
		rows[i] = httpapi.FromFused(t)
	}
	return g.aucRows(rows)
}
