package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"kfusion/internal/exper"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

// corpusSeed fixes each workload's corpus. The run's --seed varies the
// order the corpus arrives in (see shuffleByPage), not the corpus: across
// corpus seeds the quality figures alone move by 10-20% (AUC-PR IQR over
// five ScaleLarge seeds), which would swamp any change under test.
const corpusSeed = 42

// runGen is the generator child process: it synthesizes one corpus and
// writes the extraction feed and the gold labels of every extracted triple.
// It runs in its own process so the world and corpus never share a heap
// (or a peak RSS) with the measured program.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	scale := fs.String("scale", "large", "bench | large")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return err
	}
	ds := exper.NewDataset(sc, corpusSeed)
	if err := writeFile(filepath.Join(*out, feedFile), func(w *bufio.Writer) error {
		return kfio.WriteExtractions(w, ds.Extractions)
	}); err != nil {
		return err
	}
	triples := make([]kb.Triple, len(ds.Extractions))
	for i, x := range ds.Extractions {
		triples[i] = x.Triple
	}
	return writeFile(filepath.Join(*out, goldFile), func(w *bufio.Writer) error {
		return kfio.WriteGold(w, ds.Gold.Label, triples)
	})
}

// runPrep is the prep child process: it writes one run's inputs (see
// writePrepared).
func runPrep(args []string) error {
	fs := flag.NewFlagSet("prep", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "", "corpus directory written by gen")
	seed := fs.Int64("seed", 1, "arrival-order seed")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return writePrepared(*corpusDir, *seed, *out)
}

func parseScale(s string) (exper.Scale, error) {
	switch s {
	case "bench":
		return exper.ScaleBench, nil
	case "large":
		return exper.ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
